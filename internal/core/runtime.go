package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"disco/internal/algebra"
	"disco/internal/costmodel"
	"disco/internal/oql"
	"disco/internal/physical"
	"disco/internal/types"
	"disco/internal/wrapper"
)

// buildPhysical wires a logical plan to the mediator's runtime. progs is
// the plan's compiled-program cache (shared across executions of a
// prepared plan); nil compiles per execution.
func (m *Mediator) buildPhysical(plan algebra.Node, progs *oql.ProgramCache) (*physical.Plan, error) {
	rt := &physical.Runtime{
		Submit:    m.submit,
		Resolver:  valueResolver{m: m},
		MaxFanout: m.maxFanout,
		Programs:  progs,
	}
	return physical.Build(plan, rt)
}

// submit is the mediator side of the exec physical algorithm (§3.3): it
// reads the expression's extent refs once, counts the logical shard read,
// orders the shard's copies and races them. Partial evaluation fires only
// when every copy of the shard is down (§4: no answer ⇒ residual).
func (m *Mediator) submit(ctx context.Context, repo string, expr algebra.Node) (*types.Bag, error) {
	refs := exprRefs(expr)
	m.countShardReads(refs)
	cands := m.orderCandidates(m.submitCandidates(repo, refs), expr)
	bag, err := m.race(ctx, repo, cands, func(ctx context.Context, cand string) (*types.Bag, error) {
		return m.submitOnce(ctx, cand, expr, refs)
	})
	if err != nil && isUnavailableErr(err) && allStandby(refs) {
		// The unreachable copy is the *new* placement of a migrating shard
		// (the standby branch of a dual-read). The old placement branch still
		// holds every row, so the standby degrades to an empty answer instead
		// of poisoning the query with a residual. The breaker has already
		// recorded the failure; the migration driver sees it before cutover.
		return types.NewBag(), nil
	}
	return bag, err
}

// countShardReads bumps the per-shard traffic counters, one per logical
// shard read. Standby (dual-read new placement) branches are skipped: they
// duplicate a counted read of the same shard.
func (m *Mediator) countShardReads(refs []algebra.ExtentRef) {
	m.shardMu.Lock()
	for _, r := range refs {
		if r.Standby {
			continue
		}
		m.shardReads[r.QualifiedName()]++
	}
	m.shardMu.Unlock()
}

// allStandby reports whether every extent the expression reads is a
// dual-read standby copy (and there is at least one).
func allStandby(refs []algebra.ExtentRef) bool {
	if len(refs) == 0 {
		return false
	}
	for _, r := range refs {
		if !r.Standby {
			return false
		}
	}
	return true
}

// attemptFunc executes the submit expression at one copy of the shard.
// The race reaches sources only through it, so tests drive the race with a
// fake.
type attemptFunc func(ctx context.Context, repo string) (*types.Bag, error)

// race runs one shard read over the shard's ordered copies; it is the only
// place that moves from one copy to the next. Copies whose breaker admits
// them race first: the first arm launches immediately, and another
// launches when the newest resolves unavailable (failover), when it
// outlasts the hedge trigger (hedged request), or when the scatter-gather
// straggler hook fires. Copies whose breaker refused — at partition time
// or at launch — form the last-resort tail: one at a time, only once every
// admitted arm has resolved unavailable, never as a hedge. A breaker can
// therefore delay a copy but never leave it undialed while the shard goes
// unanswered. A one-copy shard is a race of one.
//
// The first answer wins and the losers are cancelled; a cancelled loser
// classifies as caller-side termination, so it records no breaker verdict
// and no cost observation. An answered error wins too: the source reported
// a genuine failure (or the caller ended the query) and no replica may
// mask it. Only when every copy resolved unavailable does the race return
// an UnavailableError naming the shard.
//
// The evaluation budget splits over the admitted arms, with one share
// reserved for the tail so the last resort stays dialable; the tail
// re-splits whatever is left when reached. Splitting over all copies up
// front would let a crowd of refused replicas starve the first healthy one.
func (m *Mediator) race(ctx context.Context, shard string, cands []string, attempt attemptFunc) (*types.Bag, error) {
	order := make([]string, 0, len(cands))
	var tail []string
	for _, cand := range cands {
		if m.breakers.Admittable(cand) {
			order = append(order, cand)
		} else {
			tail = append(tail, cand)
		}
	}
	admitted := len(order)
	order = append(order, tail...)

	type arm struct {
		cancel context.CancelFunc
		hedge  bool
	}
	type result struct {
		arm int
		bag *types.Bag
		err error
	}
	arms := make([]arm, 0, len(order))
	results := make(chan result, len(order)) // every copy launches at most once
	defer func() {
		// arms grows only in this goroutine, so the sweep sees every arm;
		// cancelling the winner after its result is in hand is a no-op.
		for _, a := range arms {
			a.cancel()
		}
		// Half-open probes ride query traffic: copies routed around while
		// their breaker was open are pinged in the background once their
		// cooldown elapses, so a recovered copy — a lone one included —
		// rejoins without a user query re-paying its timeout.
		for _, cand := range cands {
			m.maybeProbe(cand)
		}
	}()

	next, inflight := 0, 0
	launch := func(hedge bool) bool {
		for next < len(order) && ctx.Err() == nil {
			i, cand := next, order[next]
			inTail := i >= admitted
			if inTail && (hedge || inflight > 0) {
				return false
			}
			next++
			shares := len(order) - i // the tail re-splits what is left
			if !inTail {
				if !m.breakers.Allow(cand) {
					// The state moved since partitioning: last resort.
					order = append(order, cand)
					continue
				}
				shares = admitted - i
				if len(order) > admitted {
					shares++ // reserved for the tail
				}
			}
			actx, cancel := attemptCtx(ctx, shares)
			idx := len(arms)
			arms = append(arms, arm{cancel: cancel, hedge: hedge})
			if hedge {
				m.hedgesFired.Add(1)
			}
			inflight++
			go func() {
				bag, err := attempt(actx, cand)
				// A tail arm claimed no probe slot, so it has none to return.
				m.noteOutcome(cand, err, !inTail)
				results <- result{arm: idx, bag: bag, err: err}
			}()
			return true
		}
		return false
	}

	var hedgeC <-chan time.Time
	var hurry <-chan struct{}
	var hedgeAfter time.Duration
	rearmHedge := func() {
		hedgeC = nil
		if hedgeAfter > 0 && next < admitted {
			hedgeC = time.After(hedgeAfter)
		}
	}

	// giveUp is the verdict once nothing is in flight and nothing can
	// launch; last is the newest arm's unavailability, nil when the context
	// died before any copy could be dialed.
	giveUp := func(last error) error {
		if ctx.Err() != nil {
			// The query's own context ended. classify tells a caller's cancel
			// or deadline — a plain error, never a residual — from the §4
			// evaluation deadline, under which the copies' verdict stands.
			ended := classifySourceError(ctx, shard, fmt.Errorf("mediator: submit to %s: %w", shard, ctx.Err()))
			if last == nil || !isUnavailableErr(ended) {
				return ended
			}
		}
		if len(cands) == 1 {
			return last // the lone copy's verdict already names the shard
		}
		return &physical.UnavailableError{Repo: shard, Err: fmt.Errorf("no replica answered: %w", last)}
	}

	if !launch(false) {
		return nil, giveUp(nil)
	}
	if m.hedge && admitted > 1 {
		hurry = physical.HurryChan(ctx)
		hedgeAfter = m.hedgeDelay(order[:admitted]) // after the first dial, not before it
	}
	rearmHedge()
	for {
		// inflight >= 1 here: after a result either a new arm launches or,
		// when none can, the race returns — so the select cannot block
		// forever (every arm's context is bounded by the caller's).
		select {
		case r := <-results:
			inflight--
			if r.err == nil && arms[r.arm].hedge {
				m.hedgesWon.Add(1)
			}
			if r.err == nil || !isUnavailableErr(r.err) {
				return r.bag, r.err
			}
			if launch(false) {
				rearmHedge()
			} else if inflight == 0 {
				return nil, giveUp(r.err)
			}
		case <-hedgeC:
			if m.allowHedge() && launch(true) {
				rearmHedge()
			} else {
				hedgeC = nil
			}
		case <-hurry:
			hurry = nil
			if m.allowHedge() && launch(true) {
				rearmHedge()
			}
		}
	}
}

// hedgeDelay is the elapsed time past which a submit counts as in the
// tail: the smallest historical p99 among the shard's healthy copies — a
// call that has outlasted the best copy's p99 would almost surely have
// finished there, so re-issuing is worth the duplicate work. The attempted
// copy's own p99 would never rescue a copy that is consistently slow (its
// own tail tracks its slowness). The hedge floor bounds the trigger from
// below when the history is cold or the copies are microsecond-fast.
func (m *Mediator) hedgeDelay(cands []string) time.Duration {
	best := time.Duration(0)
	for _, cand := range cands {
		if p99, ok := m.history.Quantile(cand, 0.99); ok && (best == 0 || p99 < best) {
			best = p99
		}
	}
	if best > m.hedgeFloor {
		return best
	}
	return m.hedgeFloor
}

// allowHedge is the global hedge budget: hedges may be at most ~1/8 of
// total submit traffic (plus a small burst allowance for cold starts), so
// a slow spell degrades into bounded duplicate work instead of a stampede
// that doubles the load on already-struggling replicas.
func (m *Mediator) allowHedge() bool {
	return m.hedgesFired.Load()*8 < m.submits.Load()+64
}

// attemptCtx derives the deadline for one failover attempt: an equal share
// of the time left until the parent deadline, over this and the remaining
// candidates of the same round. The share derives from a single clock
// read — measuring "time left" and "now" separately would silently shrink
// it. The last candidate (and deadline-free contexts) run under the parent
// deadline; the context is always cancellable so a racing arm can be
// called off.
func attemptCtx(ctx context.Context, remaining int) (context.Context, context.CancelFunc) {
	deadline, ok := ctx.Deadline()
	if !ok || remaining <= 1 {
		return context.WithCancel(ctx)
	}
	now := time.Now()
	share := deadline.Sub(now) / time.Duration(remaining)
	if share <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithDeadline(ctx, now.Add(share))
}

// submitCandidates returns the repositories holding a copy of everything
// the submit expression reads, primary first: the intersection of the
// replica groups of the expression's extent refs (an expression reading
// two extents can only fail over to a repository holding both).
func (m *Mediator) submitCandidates(repo string, refs []algebra.ExtentRef) []string {
	var cands []string
	for _, ref := range refs {
		group := ref.Replicas
		if len(group) == 0 {
			if me, err := m.catalog.Extent(ref.Extent); err == nil {
				group = me.ReplicaGroup(repo)
			}
		}
		if len(group) == 0 {
			group = []string{repo}
		}
		if cands == nil {
			cands = group
		} else {
			cands = intersectOrdered(cands, group)
		}
	}
	if len(cands) == 0 {
		return []string{repo}
	}
	return cands
}

// intersectOrdered keeps the members of a that also appear in b, in a's
// order.
func intersectOrdered(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, x := range b {
		in[x] = true
	}
	out := a[:0:0]
	for _, x := range a {
		if in[x] {
			out = append(out, x)
		}
	}
	return out
}

// orderCandidates sorts a shard's copies for routing: breaker-healthy
// copies first (closed before half-open before open), then by the learned
// cost history's smoothed response time — the cost-model consult that
// prefers the fastest live replica. Copies with no history sort after
// measured ones (the optimizer's zero-time default would otherwise make
// every unknown replica leapfrog a known-fast primary), and ties keep
// declaration order, so the primary leads until the history says
// otherwise. Under WithLoadBalancing the head is then redrawn (rebalance).
func (m *Mediator) orderCandidates(cands []string, expr algebra.Node) []string {
	if len(cands) < 2 {
		return cands
	}
	type ranked struct {
		repo string
		rank int
		time time.Duration
	}
	var buf [4]costmodel.Estimate // room for the usual replica group, off the heap
	ests := m.history.EstimateCopies(expr, cands, buf[:0])
	rs := make([]ranked, len(cands))
	for i, cand := range cands {
		r := ranked{repo: cand}
		switch m.breakers.State(cand) {
		case BreakerClosed:
			r.rank = 0
		case BreakerHalfOpen:
			r.rank = 1
		default:
			r.rank = 2
		}
		if ests[i].Basis == costmodel.BasisDefault {
			r.time = time.Duration(1<<63 - 1)
		} else {
			r.time = ests[i].Time
		}
		rs[i] = r
	}
	sort.SliceStable(rs, func(i, j int) bool {
		if rs[i].rank != rs[j].rank {
			return rs[i].rank < rs[j].rank
		}
		return rs[i].time < rs[j].time
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.repo
	}
	if m.loadBalance {
		return m.rebalance(out)
	}
	return out
}

// rebalance spreads read traffic across a shard's healthy copies: the head
// of the candidate list is drawn at weighted random from the leading run
// of closed-breaker copies, weight inverse to the copy's recent median
// latency. An unmeasured copy weighs as much as the fastest measured one
// (new replicas must attract traffic to be learned at all), and every
// weight is floored at 1/20 of the fastest so a slow copy keeps ~5% of the
// traffic — the trickle that notices when it speeds up. Failover order
// behind the head is untouched.
func (m *Mediator) rebalance(cands []string) []string {
	lead := 0
	for _, c := range cands {
		if m.breakers.State(c) != BreakerClosed {
			break
		}
		lead++
	}
	if lead < 2 {
		return cands
	}
	weights := make([]float64, lead)
	maxW := 0.0
	for i := 0; i < lead; i++ {
		if p50, ok := m.history.Quantile(cands[i], 0.5); ok {
			lat := p50
			if lat < 100*time.Microsecond {
				lat = 100 * time.Microsecond
			}
			weights[i] = 1 / float64(lat)
			if weights[i] > maxW {
				maxW = weights[i]
			}
		}
	}
	if maxW == 0 {
		maxW = 1
	}
	total := 0.0
	for i := range weights {
		if weights[i] == 0 {
			weights[i] = maxW
		} else if weights[i] < maxW/20 {
			weights[i] = maxW / 20
		}
		total += weights[i]
	}
	r := rand.Float64() * total
	pick := 0
	for i, w := range weights {
		if r -= w; r < 0 {
			pick = i
			break
		}
	}
	if pick == 0 {
		return cands
	}
	out := make([]string, 0, len(cands))
	out = append(out, cands[pick])
	out = append(out, cands[:pick]...)
	return append(out, cands[pick+1:]...)
}

// submitOnce is submitAttempt plus the retry budget: a classified
// transient failure (the source was reached and then the exchange broke —
// a mid-answer drop, a refused dial with deadline to spare, a shed by an
// overloaded server) gets exactly one re-attempt after a jittered backoff,
// provided the token-bucket retry budget admits it. The budget accrues
// with submit traffic (~10% of recent submits, the hedging-budget
// pattern), so retries help at low failure rates and self-disable under
// collapse — when most submits fail, retrying each one would double the
// load on sources already drowning. A transient that cannot be retried,
// or whose retry fails transiently again, degrades to an UnavailableError
// so replica failover and partial evaluation take over: the caller sees a
// residual, not a torn connection.
func (m *Mediator) submitOnce(ctx context.Context, repo string, expr algebra.Node, refs []algebra.ExtentRef) (*types.Bag, error) {
	bag, err := m.submitAttempt(ctx, repo, expr, refs)
	var tr *TransientError
	if err == nil || !errors.As(err, &tr) {
		return bag, err
	}
	if ctx.Err() == nil {
		if m.allowRetry() {
			m.retries.Add(1)
			retryBackoff(ctx)
			if ctx.Err() == nil {
				bag, err = m.submitAttempt(ctx, repo, expr, refs)
				if err == nil {
					return bag, nil
				}
			}
		} else {
			m.retryExhausted.Add(1)
		}
	}
	if errors.As(err, &tr) {
		return nil, &physical.UnavailableError{Repo: tr.Repo, Err: tr.Err}
	}
	return nil, err
}

// allowRetry is the retry budget: retries may be at most ~1/10 of total
// submit traffic, plus a small burst allowance so a cold mediator can
// still retry its first flakes.
func (m *Mediator) allowRetry() bool {
	return m.retries.Load()*10 < m.submits.Load()+32
}

// retryBackoff sleeps a short jittered delay before the one-shot retry, so
// a source that dropped a burst of connections at once is not re-hit by
// the whole burst in lockstep. Bounded by the attempt's context.
func retryBackoff(ctx context.Context) {
	d := 500*time.Microsecond + time.Duration(rand.Int63n(int64(2*time.Millisecond)))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// submitAttempt executes a submit expression at one repository: it finds
// the wrapper serving the expression, translates the expression into the
// source namespace via the local transformation maps, executes it, renames
// and type-checks the results, and records the call in the cost history.
// refs is exprRefs(expr), which submit walks once for all its attempts.
func (m *Mediator) submitAttempt(ctx context.Context, repo string, expr algebra.Node, refs []algebra.ExtentRef) (*types.Bag, error) {
	m.submits.Add(1) // hedge-budget denominator: every source attempt counts
	w, err := m.wrapperFor(repo, refs)
	if err != nil {
		return nil, err
	}
	src, err := algebra.ToSource(expr)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	bag, err := w.Execute(ctx, src)
	if err != nil {
		return nil, classifySourceError(ctx, repo, err)
	}
	elapsed := time.Since(start)

	// Reformat: rename attributes back into the mediator namespace.
	bag, err = types.BagMap(bag, func(e types.Value) (types.Value, error) {
		st, ok := e.(*types.Struct)
		if !ok {
			return e, nil
		}
		for _, ref := range refs {
			st = algebra.FromSource(ref, st)
		}
		return st, nil
	})
	if err != nil {
		return nil, err
	}

	// Run-time type check (§2.1): full-object retrievals must conform to
	// the mediator interface.
	if get, ok := expr.(*algebra.Get); ok && get.Ref.Iface != "" {
		if err := wrapper.CheckResult(m.catalog.Schema(), get.Ref.Iface, bag); err != nil {
			return nil, err
		}
	}

	// Learn the call's cost (§3.3).
	m.history.Record(repo, expr, elapsed, bag.Len())
	return bag, nil
}

func exprRefs(expr algebra.Node) []algebra.ExtentRef {
	var refs []algebra.ExtentRef
	algebra.Walk(expr, func(n algebra.Node) {
		if g, ok := n.(*algebra.Get); ok {
			refs = append(refs, g.Ref)
		}
	})
	return refs
}
