package core

import (
	"context"
	"testing"
	"time"

	"disco/internal/algebra"
)

// TestHedgeLoserReclaimsServerWork is the end-to-end cancellation contract
// for hedging: when a backup submit wins, the loser is not merely ignored —
// its wire client sends a cancel frame, the slow server's handler context is
// cancelled, and its in-flight gauge drains instead of accumulating one
// zombie per race. The loser stays invisible to the control loops (breaker
// closed, no cost-history observation), and the trace reports the cancels.
func TestHedgeLoserReclaimsServerWork(t *testing.T) {
	m, servers := replicatedMediator(t,
		WithHedging(5*time.Millisecond), WithBreaker(1, time.Minute))
	// r0 is alive but slow: every read of shard 0 starts at r0, hedges to
	// r0b, wins there, and abandons the submit still pending at r0.
	servers["r0"].SetLatency(150 * time.Millisecond)
	want := wantAll()
	const query = `select x from x in people`

	// r0 must lead every race. A cancelled loser records nothing, so after
	// the first race r0b has cost history and r0 has none, and
	// orderCandidates puts r0b first; r0 then only ever gets the hedge,
	// which under CPU load is called off while it is still dialing, and r0
	// never sees a request to cancel. One seeded observation, faster than
	// any real call, keeps r0 the preferred copy; the history check at the
	// end holds r0 to exactly this seed.
	plan, _, err := m.Prepare(query)
	if err != nil {
		t.Fatal(err)
	}
	var shard0 algebra.Node
	for _, s := range algebra.Submits(plan) {
		if s.Repo == "r0" {
			shard0 = s.Input
		}
	}
	if shard0 == nil {
		t.Fatalf("plan %s has no submit to r0", plan)
	}
	m.history.Record("r0", shard0, time.Nanosecond, 0)

	c0 := m.wireCancelsSent()
	for i := 0; i < 8; i++ {
		v, _, err := m.QueryTraced(query)
		if err != nil {
			t.Fatal(err)
		}
		if !v.Equal(want) {
			t.Fatalf("answer = %s, want %s", v, want)
		}
		// The race's loser must release its server-side slot promptly — the
		// cancel frame aborts even the injected latency sleep — not after the
		// 150ms "link" plus handler time, and never accumulate across races.
		if !waitCondition(time.Second, func() bool { return servers["r0"].Inflight() == 0 }) {
			t.Fatalf("race %d: r0 inflight = %d, abandoned hedge loser not reclaimed", i, servers["r0"].Inflight())
		}
	}
	if fired := m.hedgesFired.Load(); fired == 0 {
		t.Fatal("no hedges fired against a 150ms straggler; test exercised nothing")
	}
	// Cancel frames are written asynchronously once the abandoning caller has
	// already returned (they are deliberately off the error path), so poll
	// the mediator-wide counter rather than summing per-query trace windows —
	// a frame can land between two windows and be seen by neither.
	if !waitCondition(time.Second, func() bool { return m.wireCancelsSent() > c0 }) {
		t.Error("no cancel frames sent despite abandoned hedge losers")
	}
	// A loser abandoned before its frame left has nothing to cancel, so the
	// checks below mean something only if some request reached r0.
	st := servers["r0"].Stats()
	if !waitCondition(time.Second, func() bool {
		return st.Queries.Load()+st.ExpiredOnArrival.Load()+st.Cancelled.Load() > 0
	}) {
		t.Fatal("no request reached r0 in any race; test exercised nothing")
	}
	if !waitCondition(time.Second, func() bool { return servers["r0"].Stats().Cancelled.Load() > 0 }) {
		t.Error("slow server counted no cancelled handlers")
	}
	// Cancels are a caller-side verdict: they must never poison the loser's
	// breaker (threshold 1 would open on a single false unavailability) nor
	// record a latency observation for work that never finished.
	for _, repo := range []string{"r0", "r0b", "r1", "r1b"} {
		if got := m.BreakerState(repo); got != BreakerClosed {
			t.Errorf("breaker %s = %v, want closed: a cancelled loser poisoned it", repo, got)
		}
	}
	slowest, _ := m.history.Quantile("r0", 1)
	if n := m.history.Observations("r0", shard0); n != 1 || slowest != time.Nanosecond {
		t.Errorf("r0 history = %d observations, slowest %v; want only the 1ns seed: cancelled hedge losers recorded observations", n, slowest)
	}
}

// TestCallerCancelReclaimsServerWork: a caller abandoning QueryContext
// mid-flight propagates to the sources — their in-flight gauges drain and
// their breakers stay closed (a caller walking away says nothing about
// source health).
func TestCallerCancelReclaimsServerWork(t *testing.T) {
	m, servers := replicatedMediator(t, WithBreaker(1, time.Minute))
	for _, srv := range servers {
		srv.SetLatency(300 * time.Millisecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.QueryContext(ctx, `select x from x in people`)
		done <- err
	}()
	// Wait for the scatter-gather to put work in flight at the sources, then
	// walk away.
	if !waitCondition(time.Second, func() bool {
		var n int64
		for _, srv := range servers {
			n += srv.Inflight()
		}
		return n > 0
	}) {
		t.Fatal("no source work went in flight")
	}
	cancel()
	if err := <-done; err == nil {
		t.Fatal("query survived its caller's cancel")
	}
	for repo, srv := range servers {
		srv := srv
		if !waitCondition(time.Second, func() bool { return srv.Inflight() == 0 }) {
			t.Errorf("%s inflight = %d after caller cancel", repo, srv.Inflight())
		}
	}
	for _, repo := range []string{"r0", "r0b", "r1", "r1b"} {
		if got := m.BreakerState(repo); got != BreakerClosed {
			t.Errorf("breaker %s = %v, want closed after caller-side cancel", repo, got)
		}
	}
}
