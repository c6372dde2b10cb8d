// Package source implements the autonomous data sources DISCO mediates
// over. The paper's deployments used external DBMSs and information servers
// (relational servers, WAIS, file systems); this package substitutes two
// self-contained engines that exercise the same wrapper code paths:
//
//   - RelStore: a small relational engine queried in a SQL dialect —
//     the kind of server behind WrapperPostgres (§2.1). Its SQL compiles to
//     the shared logical algebra and runs on the mediator's own physical
//     operators (physical.RunLocal), so operator semantics match the
//     mediator exactly, the property §3.2 demands.
//   - DocStore: a keyword-search document store with deliberately weak
//     query power (scan and equality filter only), standing in for the
//     WAIS-class servers the paper cites as motivating the capability
//     grammar mechanism.
package source

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"disco/internal/oql"
	"disco/internal/physical"
	"disco/internal/types"
)

// Engine is a data source: it executes queries written in the engine's own
// language and lists the collections it holds. Wrappers translate mediator
// algebra into that language.
type Engine interface {
	// Query executes a query in the engine's native language.
	Query(q string) (*types.Bag, error)
	// Collections returns the collection (table) names, sorted.
	Collections() []string
}

// ContextEngine is implemented by engines whose query execution honors a
// context: a cancelled or expired context stops evaluation at the next
// batch boundary instead of computing an answer nobody will read. Serving
// layers prefer it over Engine.Query when present, passing the per-request
// context the wire server derived from the caller's propagated deadline and
// cancel frames.
type ContextEngine interface {
	QueryContext(ctx context.Context, q string) (*types.Bag, error)
}

// Versioned is implemented by engines that timestamp their collections:
// every mutation bumps the collection's version. It concretizes the §4
// sketch of checking whether data embedded in a partial answer went stale
// while a source was unavailable.
type Versioned interface {
	// Versions returns the current version of every collection.
	Versions() map[string]int64
}

// Table is one relation of a RelStore.
type Table struct {
	Name    string
	Cols    []string
	rows    []types.Value
	version int64
}

// RelStore is an in-memory relational database queried in SQL. It is safe
// for concurrent use.
type RelStore struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

var (
	_ Engine        = (*RelStore)(nil)
	_ ContextEngine = (*RelStore)(nil)
)

// NewRelStore returns an empty store.
func NewRelStore() *RelStore {
	return &RelStore{tables: make(map[string]*Table)}
}

// CreateTable defines a relation with the given columns.
func (s *RelStore) CreateTable(name string, cols ...string) error {
	if name == "" || len(cols) == 0 {
		return fmt.Errorf("relstore: table needs a name and columns")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.tables[name]; dup {
		return fmt.Errorf("relstore: table %q already exists", name)
	}
	s.tables[name] = &Table{Name: name, Cols: append([]string(nil), cols...)}
	return nil
}

// Insert appends one row; values align with the table's column order.
func (s *RelStore) Insert(table string, values ...types.Value) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok {
		return fmt.Errorf("relstore: no table %q", table)
	}
	if len(values) != len(t.Cols) {
		return fmt.Errorf("relstore: table %q has %d columns, got %d values", table, len(t.Cols), len(values))
	}
	fields := make([]types.Field, len(values))
	for i, v := range values {
		fields[i] = types.Field{Name: t.Cols[i], Value: v}
	}
	t.rows = append(t.rows, types.NewStruct(fields...))
	t.version++
	return nil
}

// Delete removes all rows matching pred (a SQL-dialect condition) from a
// table and returns how many went away. It exists so sources can change
// under the mediator, which the staleness checks are about.
func (s *RelStore) Delete(table, cond string) (int, error) {
	pred, err := ParseSQLCondition(cond)
	if err != nil {
		return 0, err
	}
	prog, err := oql.Compile(pred)
	if err != nil {
		return 0, err
	}
	env := prog.NewEnv(nil)
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[table]
	if !ok {
		return 0, fmt.Errorf("relstore: no table %q", table)
	}
	kept := make([]types.Value, 0, len(t.rows))
	removed := 0
	for _, row := range t.rows {
		env.BindStruct(row.(*types.Struct))
		v, err := prog.Eval(env)
		if err != nil {
			return 0, err
		}
		match, err := types.Truthy(v)
		if err != nil {
			return 0, err
		}
		if match {
			removed++
			continue
		}
		kept = append(kept, row)
	}
	t.rows = kept
	if removed > 0 {
		t.version++
	}
	return removed, nil
}

// Versions implements Versioned.
func (s *RelStore) Versions() map[string]int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make(map[string]int64, len(s.tables))
	for n, t := range s.tables {
		out[n] = t.version
	}
	return out
}

// Rows returns the current contents of a table as a bag of structs.
func (s *RelStore) Rows(table string) (*types.Bag, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", table)
	}
	return types.NewBag(t.rows...), nil
}

// Columns returns a table's column names.
func (s *RelStore) Columns(table string) ([]string, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[table]
	if !ok {
		return nil, fmt.Errorf("relstore: no table %q", table)
	}
	return append([]string(nil), t.Cols...), nil
}

// Collections implements Engine.
func (s *RelStore) Collections() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	names := make([]string, 0, len(s.tables))
	for n := range s.tables {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Collection implements algebra.Collections: the store's tables are what
// the get leaves of its query plans scan.
func (s *RelStore) Collection(name string) (*types.Bag, error) {
	return s.Rows(name)
}

// Query implements Engine: it parses the SQL dialect and executes it. The
// SQL is compiled to the shared logical algebra and run by the physical
// operators the mediator itself runs, which guarantees the engine's
// comparison and join semantics are identical to the mediator's.
func (s *RelStore) Query(q string) (*types.Bag, error) {
	//lint:allow ctxflow compat shim for the context-free Engine interface; context-aware callers (the mediator included) use QueryContext via ContextEngine
	return s.QueryContext(context.Background(), q)
}

// QueryContext implements ContextEngine: Query, with every table scan
// checking the context at each batch boundary, so a cancelled or expired
// request stops burning this store's CPU promptly.
func (s *RelStore) QueryContext(ctx context.Context, q string) (*types.Bag, error) {
	plan, err := ParseSQL(q)
	if err != nil {
		return nil, err
	}
	v, err := physical.RunLocal(ctx, plan, s)
	if err != nil {
		return nil, fmt.Errorf("relstore: %w", err)
	}
	b, ok := v.(*types.Bag)
	if !ok {
		return nil, fmt.Errorf("relstore: query produced %s", v.Kind())
	}
	return b, nil
}
