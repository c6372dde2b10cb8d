package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"
)

// waitCondition polls cond until it holds or the deadline passes.
func waitCondition(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return cond()
}

// TestLoadBalancingSpreadsReads: with WithLoadBalancing every copy of a
// shard serves a share of the reads. Without it the replica of a healthy
// primary would never see a query (it exists only as a failover path).
func TestLoadBalancingSpreadsReads(t *testing.T) {
	m, servers := replicatedMediator(t, WithLoadBalancing())
	want := wantAll()
	for i := 0; i < 60; i++ {
		v, err := m.Query(`select x from x in people`)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equal(want) {
			t.Fatalf("answer = %s, want %s", v, want)
		}
	}
	for _, repo := range []string{"r0", "r0b", "r1", "r1b"} {
		if n := servers[repo].Stats().Queries.Load(); n == 0 {
			t.Errorf("copy %s served no queries under load balancing", repo)
		}
	}
}

// TestLoadBalancedConcurrentReads: concurrent readers over a shard whose
// primary is 20x slower than its replica all get the full answer under
// load balancing, with and without hedging.
func TestLoadBalancedConcurrentReads(t *testing.T) {
	for _, tc := range []struct {
		name string
		opts []Option
	}{
		{"unhedged", []Option{WithLoadBalancing()}},
		{"hedged", []Option{WithLoadBalancing(), WithHedging(time.Millisecond)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, servers := replicatedMediator(t, tc.opts...)
			servers["r0"].SetLatency(40 * time.Millisecond)
			servers["r0b"].SetLatency(2 * time.Millisecond)
			want := wantAll()
			var wg sync.WaitGroup
			errs := make(chan error, 8)
			for g := 0; g < 8; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 5; i++ {
						v, err := m.Query(`select x from x in people`)
						if err == nil && !v.Equal(want) {
							err = fmt.Errorf("answer = %s, want %s", v, want)
						}
						if err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Error(err)
			}
		})
	}
}

// TestHedgedRequestRescuesSlowCopy is the hedging contract end to end: a
// consistently slow copy leading the candidate order is rescued by a
// backup submit to its replica, the answer stays correct, and the
// cancelled loser is invisible to the control loops — its breaker is
// never poisoned (threshold 1 would open it on a single false verdict)
// and its cost history records no observation.
func TestHedgedRequestRescuesSlowCopy(t *testing.T) {
	m, servers := replicatedMediator(t,
		WithHedging(5*time.Millisecond), WithBreaker(1, time.Minute))
	// r0 is alive but two orders of magnitude slower than its replica;
	// unhedged, every read of shard 0 would wait it out.
	servers["r0"].SetLatency(100 * time.Millisecond)
	want := wantAll()
	for i := 0; i < 10; i++ {
		start := time.Now()
		v, err := m.Query(`select x from x in people`)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equal(want) {
			t.Fatalf("answer = %s, want %s", v, want)
		}
		if i > 0 && time.Since(start) > 90*time.Millisecond {
			// After the first query the history knows the fast copy; no
			// read should ever track the slow copy's latency again.
			t.Errorf("query %d took %v, want well under the slow copy's 100ms", i, time.Since(start))
		}
	}
	if fired := m.hedgesFired.Load(); fired == 0 {
		t.Error("no hedges fired against a 100ms straggler")
	}
	if won := m.hedgesWon.Load(); won == 0 {
		t.Error("no hedge won against a 100ms straggler")
	}
	// The cancelled losers must leave no trace: r0 answered nothing, so
	// its breaker stays closed (a single unavailability verdict would
	// open it) and its latency window stays empty.
	for _, repo := range []string{"r0", "r0b", "r1", "r1b"} {
		if got := m.BreakerState(repo); got != BreakerClosed {
			t.Errorf("breaker %s = %v, want closed: a hedged loser poisoned it", repo, got)
		}
	}
	if _, ok := m.history.Quantile("r0", 0.5); ok {
		t.Error("cancelled hedge losers recorded cost-history observations for r0")
	}
}

// TestHedgeTraceCounters: QueryTraced surfaces the hedges fired and won
// during the query's execution window.
func TestHedgeTraceCounters(t *testing.T) {
	m, servers := replicatedMediator(t, WithHedging(5*time.Millisecond))
	servers["r0"].SetLatency(100 * time.Millisecond)
	_, tr, err := m.QueryTraced(`select x from x in people`)
	if err != nil {
		t.Fatal(err)
	}
	if tr.HedgesFired == 0 {
		t.Errorf("Trace.HedgesFired = 0, want at least one for a 100ms straggler")
	}
	if tr.HedgesWon == 0 {
		t.Errorf("Trace.HedgesWon = 0, want at least one")
	}
}

// TestCloseWaitsForProbes: background half-open probes are tracked — Close
// blocks until the in-flight probe delivers its verdict instead of letting
// it dial through a released client pool, and a probe requested after
// Close is refused with its breaker slot returned.
func TestCloseWaitsForProbes(t *testing.T) {
	m, servers := replicatedMediator(t, WithBreaker(1, 10*time.Millisecond))
	if _, err := m.Query(`select x from x in people`); err != nil {
		t.Fatal(err) // warm the wrappers and clients
	}
	m.breakers.Failure("r0")
	time.Sleep(15 * time.Millisecond) // past the cooldown
	servers["r0"].SetLatency(150 * time.Millisecond)
	base := runtime.NumGoroutine()
	m.maybeProbe("r0")
	start := time.Now()
	m.Close()
	waited := time.Since(start)
	if got := m.BreakerState("r0"); got != BreakerClosed {
		t.Errorf("breaker r0 = %v after Close, want closed: Close must wait out the in-flight probe", got)
	}
	if waited < 100*time.Millisecond {
		t.Errorf("Close returned after %v, want >= the probe's 150ms ping", waited)
	}
	if !waitCondition(2*time.Second, func() bool { return runtime.NumGoroutine() <= base }) {
		t.Errorf("probe goroutines leaked: %d running, want <= %d", runtime.NumGoroutine(), base)
	}

	// After Close no probe may start; the slot Allow claimed must come
	// back, or the breaker would be pinned half-open forever.
	m.breakers.Failure("r0")
	time.Sleep(15 * time.Millisecond)
	g0 := runtime.NumGoroutine()
	m.maybeProbe("r0")
	if !m.breakers.Admittable("r0") {
		t.Error("probe refused after Close left the half-open slot claimed")
	}
	if !waitCondition(2*time.Second, func() bool { return runtime.NumGoroutine() <= g0 }) {
		t.Errorf("probe started after Close: %d goroutines, want <= %d", runtime.NumGoroutine(), g0)
	}
}

// TestBreakersConcurrentSlotAccounting races Allow/Success/Failure/Release
// against each other (run under -race): the half-open probe slot must stay
// consistent when a deferred dial settles a verdict it never claimed a
// slot for, while a concurrent probe holds the slot.
func TestBreakersConcurrentSlotAccounting(t *testing.T) {
	b := NewBreakers(1, time.Millisecond)
	b.Failure("x")
	time.Sleep(2 * time.Millisecond)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch (g + i) % 5 {
				case 0:
					b.Allow("x")
				case 1:
					b.Success("x") // a deferred dial that answered, slotless
				case 2:
					b.Failure("x")
				case 3:
					b.Release("x")
				default:
					b.State("x")
					b.Admittable("x")
				}
			}
		}(g)
	}
	wg.Wait()
	// Whatever interleaving happened, the slot must be claimable again:
	// drive the breaker open, wait out the cooldown, and claim.
	b.Failure("x")
	time.Sleep(2 * time.Millisecond)
	if !b.Allow("x") {
		t.Fatal("probe slot not claimable after concurrent accounting")
	}
	b.Release("x")
	if !b.Allow("x") {
		t.Fatal("released probe slot not claimable again")
	}
}

// TestProbeSlotRaceUnderTraffic hammers a flapping replicated extent from
// many goroutines (run under -race): deferred dials settle verdicts
// without claiming the probe slot while background probes hold it, and
// the breakers must come out of it able to recover.
func TestProbeSlotRaceUnderTraffic(t *testing.T) {
	m, servers := replicatedMediator(t,
		WithBreaker(1, time.Millisecond), WithTimeout(120*time.Millisecond))
	stopFlap := make(chan struct{})
	var flapWG sync.WaitGroup
	flapWG.Add(1)
	go func() {
		defer flapWG.Done()
		up := false
		for {
			select {
			case <-stopFlap:
				return
			case <-time.After(20 * time.Millisecond):
				servers["r0"].SetAvailable(up)
				servers["r0b"].SetAvailable(!up)
				up = !up
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				// Partial evaluation keeps a flapping shard's query legal:
				// the answer may be residual, never racy.
				if _, err := m.QueryPartial(`select x from x in people`); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stopFlap)
	flapWG.Wait()
	servers["r0"].SetAvailable(true)
	servers["r0b"].SetAvailable(true)
	ok := waitCondition(5*time.Second, func() bool {
		if _, err := m.Query(`select x from x in people`); err != nil {
			return false
		}
		for _, repo := range []string{"r0", "r0b", "r1", "r1b"} {
			if m.BreakerState(repo) != BreakerClosed {
				return false
			}
		}
		return true
	})
	if !ok {
		t.Error("breakers did not recover once the copies came back: probe-slot accounting corrupted")
	}
}

// TestAttemptCtxShares: the failover deadline split gives one attempt an
// equal share of the time left over the round's remaining candidates,
// derived from a single clock read, leaves the last candidate under the
// parent deadline, and always returns a cancellable context (racing arms
// are called off through it).
func TestAttemptCtxShares(t *testing.T) {
	parent, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	pd, _ := parent.Deadline()

	actx, acancel := attemptCtx(parent, 4)
	defer acancel()
	d, ok := actx.Deadline()
	if !ok {
		t.Fatal("attempt context lost the deadline")
	}
	if share := time.Until(d); share < 150*time.Millisecond || share > 260*time.Millisecond {
		t.Errorf("share for 4 remaining candidates = %v, want ~250ms of the 1s budget", share)
	}

	last, lcancel := attemptCtx(parent, 1)
	if d, _ := last.Deadline(); !d.Equal(pd) {
		t.Errorf("last candidate deadline = %v, want the parent's %v", d, pd)
	}
	lcancel()
	if last.Err() == nil {
		t.Error("attempt context for the last candidate is not cancellable")
	}

	free, fcancel := attemptCtx(context.Background(), 3)
	if _, ok := free.Deadline(); ok {
		t.Error("deadline-free parent grew a deadline")
	}
	fcancel()
	if free.Err() == nil {
		t.Error("attempt context without deadline is not cancellable")
	}
}
