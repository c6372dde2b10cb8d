package core

import (
	"fmt"
	"strings"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/catalog"
	"disco/internal/wire"
	"disco/internal/wrapper"
)

// wrapperFor locates the wrapper instance serving a submit expression that
// reads refs: every extent read by the expression must be declared with the
// same wrapper object.
func (m *Mediator) wrapperFor(repo string, refs []algebra.ExtentRef) (wrapper.Wrapper, error) {
	if len(refs) == 0 {
		return nil, fmt.Errorf("mediator: submit to %s reads no extents", repo)
	}
	wrapperName := ""
	for _, ref := range refs {
		me, err := m.catalog.Extent(ref.Extent)
		if err != nil {
			return nil, err
		}
		if !me.HasPartition(repo) && !m.catalog.IsMigrationEndpoint(ref.Extent, repo) {
			// A live migration's endpoints accept reads while its record
			// exists: the destination before placement lists it (copying,
			// dual-read) and the released source after cutover, until the
			// pre-cutover readers drain and the record clears. Anything
			// else is a routing bug.
			return nil, fmt.Errorf("mediator: extent %s lives at %s, not %s", ref.Extent, strings.Join(me.Partitions(), ","), repo)
		}
		if wrapperName == "" {
			wrapperName = me.Wrapper
		} else if me.Wrapper != wrapperName {
			return nil, fmt.Errorf("mediator: extents of one submit use different wrappers (%s, %s)", wrapperName, me.Wrapper)
		}
	}
	return m.wrapperInstance(wrapperName, repo)
}

// wrapperInstance returns (instantiating on first use) the wrapper object
// bound to a repository. Concurrent first uses may each instantiate — the
// lock is not held across instantiate, which takes it — but all of them
// get the instance that reached the map first.
func (m *Mediator) wrapperInstance(wrapperName, repoName string) (wrapper.Wrapper, error) {
	key := wrapperName + "@" + repoName
	m.mu.Lock()
	if w, ok := m.wrappers[key]; ok {
		m.mu.Unlock()
		return w, nil
	}
	m.mu.Unlock()

	wdecl, err := m.catalog.Wrapper(wrapperName)
	if err != nil {
		return nil, err
	}
	repo, err := m.catalog.Repository(repoName)
	if err != nil {
		return nil, err
	}
	w, err := m.instantiate(wdecl, repo)
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if first, ok := m.wrappers[key]; ok {
		return first, nil
	}
	m.wrappers[key] = w
	return w, nil
}

// instantiate builds a wrapper implementation for a wrapper declaration and
// repository address.
func (m *Mediator) instantiate(w *catalog.Wrapper, repo *catalog.Repository) (wrapper.Wrapper, error) {
	switch w.Kind {
	case "sql":
		q, err := m.querierFor(repo, wire.LangSQL)
		if err != nil {
			return nil, err
		}
		// An ops property restricts the advertised operator set, e.g.
		// Wrapper("sql", ops="get,select") models a server that filters
		// but cannot project or join.
		if spec := w.Props["ops"]; spec != "" {
			ops, err := parseOpsSpec(spec)
			if err != nil {
				return nil, fmt.Errorf("mediator: wrapper %s: %w", w.Name, err)
			}
			return wrapper.NewSQLWithOps(q, ops), nil
		}
		return wrapper.NewSQL(q), nil
	case "scan":
		q, err := m.querierFor(repo, wire.LangSQL)
		if err != nil {
			return nil, err
		}
		return wrapper.NewScan(wrapper.NewSQL(q)), nil
	case "doc":
		q, err := m.querierFor(repo, wire.LangDoc)
		if err != nil {
			return nil, err
		}
		return wrapper.NewDoc(q), nil
	case "csv":
		path := w.Props["path"]
		collection := w.Props["collection"]
		if path == "" || collection == "" {
			return nil, fmt.Errorf("mediator: csv wrapper %s needs path and collection properties", w.Name)
		}
		return wrapper.NewCSV(collection, path)
	case "mediator":
		addr := repo.Address
		if strings.HasPrefix(addr, "mem:") {
			return nil, fmt.Errorf("mediator: mediator wrapper %s needs a network address", w.Name)
		}
		return &mediatorWrapper{client: m.clientFor(addr)}, nil
	default:
		return nil, fmt.Errorf("mediator: unknown wrapper kind %q", w.Kind)
	}
}

// parseOpsSpec parses an ops="get,select,..." wrapper property into an
// operator set. Composition, connectives and all comparisons are enabled
// whenever any operator beyond get is present.
func parseOpsSpec(spec string) (capability.OpSet, error) {
	ops := capability.OpSet{}
	for _, tok := range strings.Split(spec, ",") {
		switch strings.TrimSpace(strings.ToLower(tok)) {
		case "get":
			ops.Get = true
		case "select":
			ops.Select = true
		case "project":
			ops.Project = true
		case "join":
			ops.Join = true
		case "distinct":
			ops.Distinct = true
		case "":
		default:
			return ops, fmt.Errorf("unknown operator %q in ops spec", tok)
		}
	}
	if ops.Select || ops.Project || ops.Join || ops.Distinct {
		ops.Compose = true
		ops.Connectives = true
	}
	return ops, nil
}

// querierFor resolves a repository address to a querier: mem: addresses
// bind to registered in-process engines, everything else dials TCP.
func (m *Mediator) querierFor(repo *catalog.Repository, lang string) (wrapper.Querier, error) {
	addr := repo.Address
	if name, ok := strings.CutPrefix(addr, "mem:"); ok {
		m.mu.Lock()
		eng, found := m.engines[name]
		m.mu.Unlock()
		if !found {
			return nil, fmt.Errorf("mediator: no in-process engine %q (repository %s)", name, repo.Name)
		}
		return wrapper.EngineQuerier{Engine: eng}, nil
	}
	if addr == "" {
		return nil, fmt.Errorf("mediator: repository %s has no address", repo.Name)
	}
	// One pooled client per address, shared across wrapper instances and
	// queries: submits reuse persistent connections instead of dialing.
	return wrapper.RemoteQuerier{Client: m.clientFor(addr), Lang: lang}, nil
}
