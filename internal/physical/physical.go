// Package physical implements DISCO's physical algebra (paper §3.3): the
// Volcano-style operators the run-time system executes, including the exec
// physical algorithm that implements the submit logical operator.
//
// It is the one plan executor on both sides of the wire. The mediator builds
// plans whose leaves are exec calls; a data source, the CSV wrapper and
// residual folding run remote-free plans through RunLocal, whose leaves scan
// the caller's own collections (Runtime.Collections). Sharing the operators
// is what makes a wrapper's semantics match the mediator's exactly (§3.2);
// algebra.Interp stays only as the specification the tests diff them against.
//
// Operators are batch-at-a-time: NextBatch moves up to types.BatchSize
// values per call through reusable buffers, so per-call overhead (interface
// dispatch, predicate setup, channel operations in the scatter-gather
// merge) amortizes over the batch instead of recurring per tuple. Scalar
// expressions inside operators — predicates, projections, join keys — run
// as closure-compiled programs (oql.Compile) bound to a per-operator
// FlatEnv hoisted in Open, not rebuilt per tuple.
//
// exec calls "proceed in parallel; calls to available data sources succeed;
// calls to unavailable data sources block" (§4) — every exec in a plan is
// launched concurrently when the plan starts, and a blocked call surfaces
// as an UnavailableError when the evaluation deadline passes, which is what
// partial evaluation reacts to.
package physical

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/types"
)

// Operator is a Volcano-style batch iterator. Operators are single-use:
// Open, NextBatch until io.EOF, Close. NextBatch resets the caller's batch
// and fills it with one to Cap values; io.EOF means the stream is exhausted
// and the batch holds nothing.
type Operator interface {
	Open(ctx context.Context) error
	NextBatch(b *types.Batch) error
	Close() error
}

// UnavailableError marks a data source that did not answer before the
// evaluation deadline — the §4 trigger for partial answers.
type UnavailableError struct {
	Repo string
	Err  error
}

// Error implements the error interface.
func (e *UnavailableError) Error() string {
	return fmt.Sprintf("data source %s unavailable: %v", e.Repo, e.Err)
}

// Unwrap supports errors.Is/As.
func (e *UnavailableError) Unwrap() error { return e.Err }

// SubmitFunc executes a submit expression at a repository: the runtime
// binds it to wrapper lookup, namespace translation, execution and cost
// recording. It must return *UnavailableError (possibly wrapped) when the
// source does not respond.
type SubmitFunc func(ctx context.Context, repo string, expr algebra.Node) (*types.Bag, error)

// Runtime supplies the environment operators need.
type Runtime struct {
	// Submit executes source calls.
	Submit SubmitFunc
	// Resolver resolves free collection names in scalar expressions
	// (correlated subqueries in projections and predicates).
	Resolver oql.Resolver
	// MaxFanout bounds how many partition shards a scatter-gather operator
	// drains concurrently; 0 or negative means unbounded (every shard at
	// once, the paper's §4 "calls proceed in parallel").
	MaxFanout int
	// Programs caches compiled expression programs. The mediator shares one
	// per prepared plan, so re-executing a cached plan skips compilation;
	// nil compiles per operator instance.
	Programs *oql.ProgramCache
	// Collections resolves get leaves to the holder's own data: a source's
	// relations, a wrapper's file. It is nil at the mediator, which holds no
	// collections — there a get outside a submit is a build error.
	Collections algebra.Collections
}

// resolver tolerates a nil receiver so operators constructed directly
// (tests, benchmarks) evaluate pure expressions without a runtime.
func (rt *Runtime) resolver() oql.Resolver {
	if rt == nil || rt.Resolver == nil {
		return oql.EmptyResolver
	}
	return rt.Resolver
}

// compileProg compiles (or fetches from the runtime's cache) the program
// for one operator expression.
func compileProg(rt *Runtime, e oql.Expr) (*oql.Program, error) {
	if rt != nil && rt.Programs != nil {
		return rt.Programs.Get(e)
	}
	return oql.Compile(e)
}

// evaluator is the per-operator state for one compiled scalar expression:
// the shared immutable program plus this operator's private environment.
// It is created in Open — never per tuple.
type evaluator struct {
	prog *oql.Program
	env  *oql.FlatEnv
}

// open (re)builds the evaluator for an expression. The program compiles
// once (or comes from the runtime cache); the environment is fresh per
// Open so reopened operators carry no stale bindings.
func (ev *evaluator) open(rt *Runtime, e oql.Expr) error {
	if ev.prog == nil || ev.prog.Expr() != e {
		prog, err := compileProg(rt, e)
		if err != nil {
			return err
		}
		ev.prog = prog
	}
	ev.env = ev.prog.NewEnv(rt.resolver())
	return nil
}

// eval runs the program over one tuple's bindings.
func (ev *evaluator) eval(elem types.Value) (types.Value, error) {
	st, ok := elem.(*types.Struct)
	if !ok {
		return nil, fmt.Errorf("physical: expression %s over non-struct element %s", ev.prog.Expr(), elem)
	}
	ev.env.BindStruct(st)
	return ev.prog.Eval(ev.env)
}

// evalStruct runs the program over an already-checked struct.
func (ev *evaluator) evalStruct(st *types.Struct) (types.Value, error) {
	ev.env.BindStruct(st)
	return ev.prog.Eval(ev.env)
}

// --- exec -------------------------------------------------------------------

type execResult struct {
	bag *types.Bag
	err error
}

// hurryKey carries a per-exec straggler signal through the context of a
// submit call: the channel closes when the scatter-gather operator decides
// the exec's branch is a straggler, and the mediator's submit may react by
// firing an immediate hedge to a replica instead of waiting out the
// per-copy p99 trigger.
type hurryKey struct{}

// HurryChan returns the straggler signal installed by Exec.Start, or nil
// when the submit was not launched under a scatter-gather branch.
func HurryChan(ctx context.Context) <-chan struct{} {
	ch, _ := ctx.Value(hurryKey{}).(<-chan struct{})
	return ch
}

// Exec is the physical algorithm for submit. Start launches the remote
// call; NextBatch streams the materialized result.
type Exec struct {
	Repo string
	Expr algebra.Node // source-side logical expression, mediator namespace

	rt       *Runtime
	startMu  sync.Mutex
	resCh    chan execResult
	hurryCh  chan struct{}
	hurried  bool
	waitOnce sync.Once
	res      execResult
	scan     ConstScan // streams the answer once it has arrived
}

// NewExec returns an exec operator for a submit node.
func NewExec(repo string, expr algebra.Node, rt *Runtime) *Exec {
	return &Exec{Repo: repo, Expr: expr, rt: rt}
}

// Start launches the source call in the background. It is idempotent.
func (e *Exec) Start(ctx context.Context) {
	e.startMu.Lock()
	defer e.startMu.Unlock()
	if e.resCh != nil {
		return
	}
	e.resCh = make(chan execResult, 1)
	e.hurryCh = make(chan struct{})
	ctx = context.WithValue(ctx, hurryKey{}, (<-chan struct{})(e.hurryCh))
	go func() {
		bag, err := e.rt.Submit(ctx, e.Repo, e.Expr)
		e.resCh <- execResult{bag: bag, err: err}
	}()
}

// Hurry flags the in-flight source call as a straggler: the submit's
// HurryChan closes, inviting the runtime to speculatively re-submit the
// call to a replica and keep whichever answers first. It is idempotent,
// and a no-op on an exec that has not started (a branch still queued
// behind the fan-out's concurrency bound is waiting, not straggling).
func (e *Exec) Hurry() {
	e.startMu.Lock()
	defer e.startMu.Unlock()
	if e.resCh == nil || e.hurried {
		return
	}
	e.hurried = true
	close(e.hurryCh)
}

// Wait blocks until the call completes (the submit function itself honors
// the context deadline) and returns its outcome. It is safe for concurrent
// callers: the scatter-gather operator and the plan's outcome collection may
// both wait on the same exec.
func (e *Exec) Wait() (*types.Bag, error) {
	e.startMu.Lock()
	ch := e.resCh
	e.startMu.Unlock()
	if ch == nil {
		return nil, fmt.Errorf("physical: exec %s not started", e.Repo)
	}
	e.waitOnce.Do(func() { e.res = <-ch })
	return e.res.bag, e.res.err
}

// Outcome reports the call's result for partial evaluation. An exec that
// was never started (its scatter-gather slot never came up before the plan
// aborted) counts as unavailable: the mediator has no data from it, so its
// subtree must stay in the residual query.
func (e *Exec) Outcome() Outcome {
	e.startMu.Lock()
	ch := e.resCh
	e.startMu.Unlock()
	if ch == nil {
		return Outcome{Err: &UnavailableError{Repo: e.Repo, Err: errors.New("source call not attempted")}}
	}
	bag, err := e.Wait()
	return Outcome{Bag: bag, Err: err}
}

// Open implements Operator.
func (e *Exec) Open(ctx context.Context) error {
	e.Start(ctx)
	e.scan.idx = 0
	return nil
}

// NextBatch implements Operator.
func (e *Exec) NextBatch(out *types.Batch) error {
	bag, err := e.Wait()
	if err != nil {
		return err
	}
	e.scan.Bag = bag
	return e.scan.NextBatch(out)
}

// Close implements Operator.
func (e *Exec) Close() error { return nil }

// --- scan-like operators ------------------------------------------------------

// ConstScan streams an in-memory bag (the paper's file-scan analog for
// embedded data).
type ConstScan struct {
	Bag *types.Bag
	idx int
}

// Open implements Operator.
func (c *ConstScan) Open(context.Context) error {
	c.idx = 0
	return nil
}

// NextBatch implements Operator.
func (c *ConstScan) NextBatch(out *types.Batch) error {
	out.Reset()
	if c.idx >= c.Bag.Len() {
		return io.EOF
	}
	for c.idx < c.Bag.Len() && !out.Full() {
		out.Append(c.Bag.At(c.idx))
		c.idx++
	}
	return nil
}

// Close implements Operator.
func (c *ConstScan) Close() error { return nil }

// CollScan is the source-side leaf: it streams the named collection of the
// runtime's Collections. Below a get there is no §4 — nothing turns a lapsed
// deadline into a partial answer — so, unlike the mediator's operator loops
// (cancelErr), it stops on any context error, at every batch boundary.
type CollScan struct {
	Cols algebra.Collections
	Name string

	ctx  context.Context
	scan ConstScan
}

// Open implements Operator.
func (s *CollScan) Open(ctx context.Context) error {
	bag, err := s.Cols.Collection(s.Name)
	s.ctx, s.scan = ctx, ConstScan{Bag: bag}
	return err
}

// NextBatch implements Operator.
func (s *CollScan) NextBatch(out *types.Batch) error {
	if err := s.ctx.Err(); err != nil {
		return fmt.Errorf("physical: scan of %s stopped: %w", s.Name, err)
	}
	return s.scan.NextBatch(out)
}

// Close implements Operator.
func (s *CollScan) Close() error { return nil }

// EvalScan evaluates an arbitrary OQL expression (compiled) and yields the
// single resulting value.
type EvalScan struct {
	Expr oql.Expr
	rt   *Runtime
	ev   evaluator
	done bool
}

// Open implements Operator.
func (s *EvalScan) Open(context.Context) error {
	s.done = false
	return s.ev.open(s.rt, s.Expr)
}

// NextBatch implements Operator.
func (s *EvalScan) NextBatch(out *types.Batch) error {
	out.Reset()
	if s.done {
		return io.EOF
	}
	s.done = true
	v, err := s.ev.prog.Eval(s.ev.env)
	if err != nil {
		return err
	}
	out.Append(v)
	return nil
}

// Close implements Operator.
func (s *EvalScan) Close() error { return nil }

// --- element-wise operators ---------------------------------------------------

// MkBind wraps each input element into a {var: elem} struct, in place.
type MkBind struct {
	Var   string
	Input Operator
}

// Open implements Operator.
func (b *MkBind) Open(ctx context.Context) error { return b.Input.Open(ctx) }

// NextBatch implements Operator.
func (b *MkBind) NextBatch(out *types.Batch) error {
	if err := b.Input.NextBatch(out); err != nil {
		return err
	}
	vals := out.Values()
	for i, v := range vals {
		vals[i] = types.StructFromFields([]types.Field{{Name: b.Var, Value: v}})
	}
	return nil
}

// Close implements Operator.
func (b *MkBind) Close() error { return b.Input.Close() }

// MkSelect filters elements by a compiled predicate. Each input batch is
// filtered through a reusable selection vector: survivor indices are
// recorded, then the batch is compacted in place — no per-tuple output
// bookkeeping and no allocation on the filter path.
type MkSelect struct {
	Pred  oql.Expr
	Input Operator
	rt    *Runtime

	ev  evaluator
	sel []int32
}

// Open implements Operator.
func (s *MkSelect) Open(ctx context.Context) error {
	if err := s.ev.open(s.rt, s.Pred); err != nil {
		return err
	}
	return s.Input.Open(ctx)
}

// NextBatch implements Operator.
func (s *MkSelect) NextBatch(out *types.Batch) error {
	for {
		if err := s.Input.NextBatch(out); err != nil {
			return err
		}
		vals := out.Values()
		s.sel = s.sel[:0]
		for i, v := range vals {
			cond, err := s.ev.eval(v)
			if err != nil {
				return err
			}
			keep, err := types.Truthy(cond)
			if err != nil {
				return err
			}
			if keep {
				s.sel = append(s.sel, int32(i))
			}
		}
		if len(s.sel) == len(vals) {
			return nil // everything passed; no compaction needed
		}
		for j, i := range s.sel {
			vals[j] = vals[i]
		}
		out.Truncate(len(s.sel))
		if out.Len() > 0 {
			return nil
		}
	}
}

// Close implements Operator.
func (s *MkSelect) Close() error { return s.Input.Close() }

// MkProj projects each element to a struct of named columns. The whole
// column list compiles into one struct-constructor program, so a tuple
// binds its variables once however many columns there are. Build presets
// the program cached under the logical Project node (the synthesized
// constructor expression has a fresh pointer per build, so it cannot be
// the cache key itself); directly constructed operators compile on first
// Open.
type MkProj struct {
	Cols  []algebra.Col
	Input Operator
	rt    *Runtime

	ev evaluator
}

// Open implements Operator.
func (p *MkProj) Open(ctx context.Context) error {
	if p.ev.prog == nil {
		// Direct construction (no Build): compile uncached — the fresh
		// constructor pointer must not become a runtime-cache key.
		prog, err := oql.Compile(algebra.ProjCtor(p.Cols))
		if err != nil {
			return err
		}
		p.ev.prog = prog
	}
	p.ev.env = p.ev.prog.NewEnv(p.rt.resolver())
	return p.Input.Open(ctx)
}

// NextBatch implements Operator.
func (p *MkProj) NextBatch(out *types.Batch) error {
	if err := p.Input.NextBatch(out); err != nil {
		return err
	}
	vals := out.Values()
	for i, v := range vals {
		fv, err := p.ev.eval(v)
		if err != nil {
			return err
		}
		vals[i] = fv
	}
	return nil
}

// Close implements Operator.
func (p *MkProj) Close() error { return p.Input.Close() }

// MkMap evaluates an arbitrary compiled expression per element, in place.
type MkMap struct {
	Expr  oql.Expr
	Input Operator
	rt    *Runtime

	ev evaluator
}

// Open implements Operator.
func (m *MkMap) Open(ctx context.Context) error {
	if err := m.ev.open(m.rt, m.Expr); err != nil {
		return err
	}
	return m.Input.Open(ctx)
}

// NextBatch implements Operator.
func (m *MkMap) NextBatch(out *types.Batch) error {
	if err := m.Input.NextBatch(out); err != nil {
		return err
	}
	vals := out.Values()
	for i, v := range vals {
		fv, err := m.ev.eval(v)
		if err != nil {
			return err
		}
		vals[i] = fv
	}
	return nil
}

// Close implements Operator.
func (m *MkMap) Close() error { return m.Input.Close() }

// MkNest regroups flat joined tuples into per-variable structs, in place.
type MkNest struct {
	Groups []algebra.NestGroup
	Input  Operator
}

// Open implements Operator.
func (n *MkNest) Open(ctx context.Context) error { return n.Input.Open(ctx) }

// NextBatch implements Operator.
func (n *MkNest) NextBatch(out *types.Batch) error {
	if err := n.Input.NextBatch(out); err != nil {
		return err
	}
	vals := out.Values()
	for i, v := range vals {
		st, ok := v.(*types.Struct)
		if !ok {
			return fmt.Errorf("physical: nest over %s", v.Kind())
		}
		outer := make([]types.Field, 0, len(n.Groups))
		for _, g := range n.Groups {
			inner := make([]types.Field, 0, len(g.Attrs))
			for _, a := range g.Attrs {
				fv, ok := st.Get(a)
				if !ok {
					return fmt.Errorf("physical: nest attribute %q missing in %s", a, st)
				}
				inner = append(inner, types.Field{Name: a, Value: fv})
			}
			outer = append(outer, types.Field{Name: g.Var, Value: types.NewStruct(inner...)})
		}
		vals[i] = types.NewStruct(outer...)
	}
	return nil
}

// Close implements Operator.
func (n *MkNest) Close() error { return n.Input.Close() }

// MkDepend expands a dependent binding: for each input env it evaluates the
// domain expression and emits one extended env per domain element.
type MkDepend struct {
	Var    string
	Domain oql.Expr
	Input  Operator
	rt     *Runtime

	ev      evaluator
	in      *types.Batch
	cursor  int
	pending []types.Value
	pcur    int
}

// Open implements Operator.
func (d *MkDepend) Open(ctx context.Context) error {
	if err := d.ev.open(d.rt, d.Domain); err != nil {
		return err
	}
	if d.in == nil {
		d.in = types.NewBatch(0)
	}
	d.in.Reset()
	d.cursor = 0
	d.pending = d.pending[:0]
	d.pcur = 0
	return d.Input.Open(ctx)
}

// NextBatch implements Operator.
func (d *MkDepend) NextBatch(out *types.Batch) error {
	out.Reset()
	for !out.Full() {
		if d.pcur < len(d.pending) {
			out.Append(d.pending[d.pcur])
			d.pcur++
			continue
		}
		if d.cursor >= d.in.Len() {
			if err := d.Input.NextBatch(d.in); err != nil {
				if err == io.EOF && out.Len() > 0 {
					return nil
				}
				return err
			}
			d.cursor = 0
		}
		env := d.in.At(d.cursor)
		d.cursor++
		st, ok := env.(*types.Struct)
		if !ok {
			return fmt.Errorf("physical: depend over %s", env.Kind())
		}
		dom, err := d.ev.evalStruct(st)
		if err != nil {
			return err
		}
		d.pending = d.pending[:0]
		d.pcur = 0
		if err := types.RangeElements(dom, func(e types.Value) bool {
			d.pending = append(d.pending, types.ExtendStruct(st, types.Field{Name: d.Var, Value: e}))
			return true
		}); err != nil {
			return fmt.Errorf("physical: dependent domain for %s: %w", d.Var, err)
		}
	}
	return nil
}

// Close implements Operator.
func (d *MkDepend) Close() error { return d.Input.Close() }

// MkUnion concatenates its inputs (bag union), forwarding whole batches
// from non-scalar inputs.
type MkUnion struct {
	Inputs []Operator
	// scalar marks inputs whose single element is itself a collection to
	// splice (aggregate results used as union operands).
	scalarInput []bool
	cur         int
	scratch     *types.Batch
	pending     []types.Value
	pcur        int
}

// Open implements Operator.
func (u *MkUnion) Open(ctx context.Context) error {
	u.cur = 0
	u.pending = u.pending[:0]
	u.pcur = 0
	for _, in := range u.Inputs {
		if err := in.Open(ctx); err != nil {
			return err
		}
	}
	return nil
}

// NextBatch implements Operator.
func (u *MkUnion) NextBatch(out *types.Batch) error {
	out.Reset()
	for {
		if u.pcur < len(u.pending) {
			for u.pcur < len(u.pending) && !out.Full() {
				out.Append(u.pending[u.pcur])
				u.pcur++
			}
			if out.Len() > 0 {
				return nil
			}
		}
		if u.cur >= len(u.Inputs) {
			if out.Len() > 0 {
				return nil
			}
			return io.EOF
		}
		if u.scalarInput != nil && u.scalarInput[u.cur] {
			if u.scratch == nil {
				u.scratch = types.NewBatch(0)
			}
			err := u.Inputs[u.cur].NextBatch(u.scratch)
			if err == io.EOF {
				u.cur++
				continue
			}
			if err != nil {
				return err
			}
			u.pending = u.pending[:0]
			u.pcur = 0
			for _, v := range u.scratch.Values() {
				if err := types.RangeElements(v, func(e types.Value) bool {
					u.pending = append(u.pending, e)
					return true
				}); err != nil {
					return fmt.Errorf("physical: union operand: %w", err)
				}
			}
			continue
		}
		err := u.Inputs[u.cur].NextBatch(out)
		if err == io.EOF {
			u.cur++
			continue
		}
		return err
	}
}

// Close implements Operator.
func (u *MkUnion) Close() error {
	var first error
	for _, in := range u.Inputs {
		if err := in.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// MkDistinct removes duplicates, compacting each batch in place.
type MkDistinct struct {
	Input Operator
	seen  map[string]bool
	keyer types.Keyer
}

// Open implements Operator.
func (d *MkDistinct) Open(ctx context.Context) error {
	d.seen = make(map[string]bool)
	return d.Input.Open(ctx)
}

// NextBatch implements Operator.
func (d *MkDistinct) NextBatch(out *types.Batch) error {
	for {
		if err := d.Input.NextBatch(out); err != nil {
			return err
		}
		vals := out.Values()
		n := 0
		for _, v := range vals {
			k := d.keyer.Key(v)
			if !d.seen[k] {
				d.seen[k] = true
				vals[n] = v
				n++
			}
		}
		out.Truncate(n)
		if n > 0 {
			return nil
		}
	}
}

// Close implements Operator.
func (d *MkDistinct) Close() error { return d.Input.Close() }

// MkFlatten splices the elements of collection-valued elements. The
// pending buffer is reused across input elements (cursor + truncate), so
// flattening does not re-copy every inner collection.
type MkFlatten struct {
	Input   Operator
	in      *types.Batch
	cursor  int
	pending []types.Value
	pcur    int
}

// Open implements Operator.
func (f *MkFlatten) Open(ctx context.Context) error {
	if f.in == nil {
		f.in = types.NewBatch(0)
	}
	f.in.Reset()
	f.cursor = 0
	f.pending = f.pending[:0]
	f.pcur = 0
	return f.Input.Open(ctx)
}

// NextBatch implements Operator.
func (f *MkFlatten) NextBatch(out *types.Batch) error {
	out.Reset()
	for !out.Full() {
		if f.pcur < len(f.pending) {
			out.Append(f.pending[f.pcur])
			f.pcur++
			continue
		}
		if f.cursor >= f.in.Len() {
			if err := f.Input.NextBatch(f.in); err != nil {
				if err == io.EOF && out.Len() > 0 {
					return nil
				}
				return err
			}
			f.cursor = 0
		}
		v := f.in.At(f.cursor)
		f.cursor++
		f.pending = f.pending[:0]
		f.pcur = 0
		if err := types.RangeElements(v, func(e types.Value) bool {
			f.pending = append(f.pending, e)
			return true
		}); err != nil {
			return fmt.Errorf("physical: flatten: %w", err)
		}
	}
	return nil
}

// Close implements Operator.
func (f *MkFlatten) Close() error { return f.Input.Close() }

// MkAgg drains its input and yields the single aggregate value.
type MkAgg struct {
	Fn    string
	Input Operator
	done  bool
	ctx   context.Context
}

// Open implements Operator.
func (a *MkAgg) Open(ctx context.Context) error {
	a.done = false
	a.ctx = ctx
	return a.Input.Open(ctx)
}

// NextBatch implements Operator.
func (a *MkAgg) NextBatch(out *types.Batch) error {
	out.Reset()
	if a.done {
		return io.EOF
	}
	a.done = true
	elems, err := drainOpened(a.ctx, a.Input)
	if err != nil {
		return err
	}
	v, err := oql.ApplyCall(a.Fn, []types.Value{types.NewBag(elems...)})
	if err != nil {
		return err
	}
	out.Append(v)
	return nil
}

// Close implements Operator.
func (a *MkAgg) Close() error { return a.Input.Close() }

// cancelErr reports the context's error when the context was cancelled —
// and stays nil when (only) a deadline fired. The distinction is
// load-bearing for partial evaluation: the mediator's own evaluation
// deadline (§4) must reach the in-flight exec calls and come back as
// per-source UnavailableErrors, the trigger for partial answers, so
// operator loops abort eagerly only on true cancellation — a caller that
// walked away, a hedge loser, a plan being torn down — where nobody wants
// any answer at all.
func cancelErr(ctx context.Context) error {
	if ctx == nil {
		return nil // operator constructed and driven directly, no context
	}
	if err := ctx.Err(); err == context.Canceled {
		return err
	}
	return nil
}

// drainBatches recycles Drain's transfer batch: a source runs one Drain per
// query (more under joins and aggregates), and a fresh 16 KiB buffer each
// time would dominate a point query's allocation.
var drainBatches = sync.Pool{New: func() any { return types.NewBatch(0) }}

// Drain runs an operator to exhaustion and returns its elements. The
// operator is closed even when Open fails partway: a composite whose n-th
// input failed to open may already have launched goroutines under inputs
// 1..n-1 (a scatter-gather's branches), and only the Close cascade stops
// them. A cancelled context stops the loop at the next batch boundary.
func Drain(ctx context.Context, op Operator) ([]types.Value, error) {
	if err := op.Open(ctx); err != nil {
		op.Close()
		return nil, err
	}
	defer op.Close()
	return drainOpened(ctx, op)
}

// drainOpened is Drain's loop over an operator its caller opened and will
// close (an aggregate's input).
func drainOpened(ctx context.Context, op Operator) ([]types.Value, error) {
	b := drainBatches.Get().(*types.Batch)
	defer drainBatches.Put(b)
	var out []types.Value
	for {
		if err := cancelErr(ctx); err != nil {
			return nil, err
		}
		err := op.NextBatch(b)
		if err == io.EOF {
			// End-of-stream is the bare sentinel, compared by identity: a
			// transport failure that *wraps* io.EOF (a peer hanging up
			// mid-answer) must surface as the error it is, not silently
			// truncate the stream into a smaller complete answer.
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, b.Values()...)
	}
}
