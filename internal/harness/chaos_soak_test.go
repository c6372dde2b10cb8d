package harness

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"disco/internal/chaos"
	"disco/internal/core"
	"disco/internal/oql"
)

// TestChaosSoakGracefulDegradation is the closed-loop verification of the
// overload-protection contract, driven by seeded fault injection so every
// run replays the same chaos. It walks the federation through four phases
// and asserts the degradation ladder at each rung:
//
//  1. Overload: offered load far beyond the admission gate's capacity.
//     Excess queries are shed with an OverloadError — and a shed query
//     dials no source, so the sources see only the admitted load.
//  2. Bounded latency: the p99 of admitted queries stays near the SLO
//     even at saturation — early rejection, not queueing, absorbs the
//     excess.
//  3. Partition: a chaos proxy severs one source mid-soak. Queries under
//     partial-evaluation semantics keep returning answers — complete or
//     parseable residuals — never errors.
//  4. Recovery: the fault lifts and the same mediator, same pools, same
//     breakers, returns to complete answers.
//
// The whole walk is goroutine-leak-checked: chaos must not leave
// forwarding or waiter goroutines behind.
func TestChaosSoakGracefulDegradation(t *testing.T) {
	goroutinesBefore := runtime.NumGoroutine()

	const (
		sources       = 3
		maxConcurrent = 4
		slo           = 400 * time.Millisecond
	)
	f, err := NewPersonFleet(FleetConfig{
		Sources:       sources,
		RowsPerSource: 25,
		TCP:           true,
		Chaos:         true,
		ChaosSeed:     42,
		// Server-side latency makes saturation latency-bound rather than
		// CPU-bound, so the test measures the gate, not the test machine.
		Latency:       20 * time.Millisecond,
		Timeout:       slo,
		MaxConcurrent: maxConcurrent,
		MaxQueued:     maxConcurrent,
		MaxQueueWait:  slo / 4,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up: prepared plan cached, service-time window primed.
	for i := 0; i < 4; i++ {
		if _, err := f.M.Query(paperQuery); err != nil {
			t.Fatalf("warm-up query %d: %v", i, err)
		}
	}

	// Phase 1+2 — overload. 8x the gate's capacity in closed-loop clients.
	sourceQueriesBefore := f.TotalQueries()
	var (
		mu        sync.Mutex
		succeeded int64
		shed      int64
		latencies []time.Duration
	)
	var wg sync.WaitGroup
	overloadUntil := time.Now().Add(600 * time.Millisecond)
	for c := 0; c < 4*maxConcurrent; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(overloadUntil) {
				ctx, cancel := context.WithTimeout(context.Background(), slo)
				t0 := time.Now()
				_, err := f.M.QueryContext(ctx, paperQuery)
				elapsed := time.Since(t0)
				cancel()
				mu.Lock()
				switch {
				case err == nil:
					succeeded++
					latencies = append(latencies, elapsed)
				case core.IsOverloadError(err):
					shed++
				default:
					mu.Unlock()
					t.Errorf("overload phase: non-overload error: %v", err)
					return
				}
				mu.Unlock()
				if err != nil {
					// A shed client backs off before retrying — the behaviour
					// OverloadError asks of callers, and what keeps the
					// generator from degenerating into a busy spin.
					time.Sleep(2 * time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()

	if succeeded == 0 {
		t.Fatal("overload phase: nothing succeeded — shedding everything is collapse, not protection")
	}
	if shed == 0 {
		t.Fatal("overload phase: 8x capacity produced zero sheds — the gate is not gating")
	}
	// A shed query performs zero source dials: the sources' query counters
	// account exactly for the admitted queries (each fans out to every
	// source; healthy links mean no retries inflate the count).
	sourceQueries := f.TotalQueries() - sourceQueriesBefore
	if want := succeeded * sources; sourceQueries != want {
		t.Errorf("source query count %d != admitted x sources %d: shed queries reached the sources",
			sourceQueries, want)
	}
	// Bounded p99 for admitted queries at saturation: early rejection keeps
	// the served queries fast. The bound is generous (the SLO plus queue
	// wait) because CI machines are noisy; the collapse mode it guards
	// against — p99 at the full deadline because everything queues — is far
	// beyond it.
	if p99 := quantileDuration(latencies, 0.99); p99 > slo {
		t.Errorf("admitted-query p99 %v exceeds the SLO %v under saturation", p99, slo)
	}
	t.Logf("overload: %d admitted, %d shed (%.0f%%), p99 %v",
		succeeded, shed, 100*float64(shed)/float64(succeeded+shed),
		quantileDuration(latencies, 0.99))

	// Phase 3 — partition. Source 0's link goes down; answers degrade to
	// residuals, never to errors. The kill is synchronous at the proxy but
	// the client pool discovers dead sockets asynchronously, so probe until
	// the partition is observed — a bounded wait, so a partition that never
	// degrades anything still fails the test.
	f.SetFault(0, chaos.Partition{})
	partials := 0
	partitionDeadline := time.Now().Add(5 * time.Second)
	for partials == 0 {
		if !time.Now().Before(partitionDeadline) {
			t.Fatal("partition phase: a severed source never produced a residual answer")
		}
		ans, err := f.M.QueryPartial(paperQuery)
		if err != nil {
			t.Fatalf("partition phase: graceful degradation returned an error: %v", err)
		}
		if !ans.Complete {
			partials++
			if _, perr := oql.ParseQuery(ans.Residual.String()); perr != nil {
				t.Fatalf("partition phase: malformed residual %q: %v", ans.Residual, perr)
			}
		}
	}
	// With the partition established, the contract must hold steadily.
	for i := 0; i < 5; i++ {
		ans, err := f.M.QueryPartial(paperQuery)
		if err != nil {
			t.Fatalf("partition phase query %d: graceful degradation returned an error: %v", i, err)
		}
		if !ans.Complete {
			if _, perr := oql.ParseQuery(ans.Residual.String()); perr != nil {
				t.Fatalf("partition phase: malformed residual %q: %v", ans.Residual, perr)
			}
		}
	}

	// Phase 4 — recovery. The fault lifts; the same mediator returns to
	// complete answers (the breaker's probe cadence bounds how long the
	// partitioned source stays quarantined).
	f.AllHealthy()
	recovered := false
	recoveryDeadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(recoveryDeadline) {
		ans, err := f.M.QueryPartial(paperQuery)
		if err == nil && ans.Complete {
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("no full recovery after chaos ended")
	}

	f.Close()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= goroutinesBefore {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("goroutines leaked through the chaos soak: %d before, %d after",
		goroutinesBefore, runtime.NumGoroutine())
}

// TestChaosSoakFlakyLinksDegradeNotError: a scripted timeline of mid-answer
// drops and latency spikes on every link must never surface as a caller
// error — the retry budget absorbs what it can, partial evaluation converts
// the rest into residuals, and the run is identical for a given seed.
func TestChaosSoakFlakyLinksDegradeNotError(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	f, err := NewPersonFleet(FleetConfig{
		Sources:       3,
		RowsPerSource: 25,
		TCP:           true,
		Chaos:         true,
		ChaosSeed:     7,
		Timeout:       250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	// Scripted chaos on every link: healthy, then flaky (drop each answer
	// mid-frame), a latency spike, and back to healthy.
	script := chaos.Script{Seed: 7, Steps: []chaos.Step{
		{After: 0, Fault: chaos.Healthy{}},
		{After: 200 * time.Millisecond, Fault: chaos.Flaky{DropAfter: 20}},
		{After: 600 * time.Millisecond, Fault: chaos.Latency{D: 30 * time.Millisecond, Jitter: 20 * time.Millisecond}},
		{After: 900 * time.Millisecond, Fault: chaos.Healthy{}},
	}}
	stop := make(chan struct{})
	var chaosWG sync.WaitGroup
	for _, p := range f.Proxies {
		chaosWG.Add(1)
		go func(p *chaos.Proxy) {
			defer chaosWG.Done()
			p.Run(stop, script)
		}(p)
	}

	var wg sync.WaitGroup
	until := time.Now().Add(1200 * time.Millisecond)
	errs := make(chan error, 64)
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(until) {
				ans, err := f.M.QueryPartial(paperQuery)
				if err != nil {
					errs <- err
					return
				}
				if !ans.Complete {
					if _, perr := oql.ParseQuery(ans.Residual.String()); perr != nil {
						errs <- perr
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	chaosWG.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("flaky-link soak: %v", err)
	}

	// The retry budget should have seen action: flaky links produce
	// transient mid-answer drops, and the first line of defence is a
	// budgeted retry, not immediate unavailability.
	_, retried, _ := f.M.OverloadStats()
	t.Logf("flaky-link soak: %d budgeted retries", retried)

	// Full recovery after the script ends.
	recovered := false
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ans, err := f.M.QueryPartial(paperQuery)
		if err == nil && ans.Complete {
			recovered = true
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !recovered {
		t.Fatal("no full recovery after the chaos script ended")
	}
}

// quantileDuration returns the q-quantile of ds (0 when empty).
func quantileDuration(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(ds))
	copy(sorted, ds)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(q * float64(len(sorted)-1))
	return sorted[idx]
}
