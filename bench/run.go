package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"disco/internal/algebra"
)

// metricDef names a metric the binary emits; BENCHMARK.json lists the same
// names with the same units and adds direction and bound.
type metricDef struct {
	name string
	unit string
	// of is an end-to-end metric's value in one measurement window; nil
	// for setup_s, which has no windows, and for the per-layer metrics.
	of func(*window) float64
}

// endToEnd is what a user of the mediator would see, per workload. Each is
// the median over the measurement windows of the per-window value.
var endToEnd = []metricDef{
	{"setup_s", "s", nil},
	{"throughput_qps", "1/s", func(w *window) float64 { return w.qps }},
	{"query_p50_ms", "ms", func(w *window) float64 { return percentile(w.latencies, 0.50) }},
	{"query_p90_ms", "ms", func(w *window) float64 { return percentile(w.latencies, 0.90) }},
	{"query_p99_ms", "ms", func(w *window) float64 { return percentile(w.latencies, 0.99) }},
	{"allocs_per_query", "count", func(w *window) float64 { return w.perQuery(float64(w.delta.mallocs)) }},
	{"alloc_kb_per_query", "KiB", func(w *window) float64 { return w.perQuery(float64(w.delta.allocBytes) / 1024) }},
	{"cpu_ms_per_query", "ms", func(w *window) float64 { return w.perQuery(float64(w.delta.cpu) / float64(time.Millisecond)) }},
}

// protocol is the timing of one run; fullProtocol is the benchmark's, the
// tests shrink it.
type protocol struct {
	cfg     fixtureConfig
	setups  int           // set-ups timed, after one that is not; the last one's fleet is kept
	warmA   time.Duration // point queries over the keys no workload pins: cost history converges on every copy
	warmB   time.Duration // the workload's own stream: its hot texts are prepared
	measure time.Duration // split evenly into windows
	windows int
	// retries is how often a drifting measurement is taken again before the
	// run fails: the drifting windows have then served as more warm-up.
	retries int
	// driftBound is throughput_qps's bound from BENCHMARK.json.
	driftBound float64
}

func fullProtocol(measure time.Duration, driftBound float64) protocol {
	return protocol{
		cfg:        fullFixture,
		setups:     5,
		warmA:      4 * time.Second,
		warmB:      2 * time.Second,
		measure:    measure,
		windows:    4,
		retries:    2,
		driftBound: driftBound,
	}
}

// warmupPerShard is the least number of warm-up A queries per shard. A
// shard's cost history has converged once each of its copies has been made
// to run each plan shape the optimizer weighs for a point query, the
// whole-shard fetch included; which copy runs a query is the load
// balancer's draw, so that takes a few tens of fresh texts per shard. The
// reference box runs about 300 per shard in warm-up A's four seconds.
const warmupPerShard = 200

// value is a per-layer metric: one number, no windows.
type value struct {
	Unit  string  `json:"unit"`
	Value float64 `json:"value"`
}

// workloadResult is one workload's row group in a result file. A run in
// which a query failed emits no numbers, so Failed and FailedShare are 0 in
// every file that exists; they are written so that the file says so and the
// comparator can gate on it.
type workloadResult struct {
	Text             string             `json:"text"`
	Why              string             `json:"why"`
	Attempted        int                `json:"attempted"`
	Failed           int                `json:"failed"`
	FailedShare      float64            `json:"failed_share"`
	SamplesPerWindow []int              `json:"samples_per_window,omitempty"`
	Remeasured       int                `json:"remeasured,omitempty"`
	EndToEnd         map[string]summary `json:"end_to_end,omitempty"`
	PerLayer         map[string]value   `json:"per_layer,omitempty"`
}

// checkHost refuses a box the protocol is not defined for: more runnable
// threads, or more clients, than processors means the numbers measure the
// scheduler.
func checkHost() error {
	nproc := runtime.NumCPU()
	if g := runtime.GOMAXPROCS(0); g > nproc {
		return fmt.Errorf("GOMAXPROCS %d exceeds the %d processors available", g, nproc)
	}
	if clients > nproc {
		return fmt.Errorf("%d clients exceed the %d processors available", clients, nproc)
	}
	return nil
}

// runWorkload runs the protocol for one workload. With e2e it measures the
// end-to-end metrics; with layers it then probes the layers on the same,
// warmed fleet.
func runWorkload(ctx context.Context, w *workload, seed int64, p protocol, e2e, layers bool) (*workloadResult, error) {
	if err := checkHost(); err != nil {
		return nil, err
	}
	res := &workloadResult{Text: w.text, Why: w.why}

	// (1) set-up, several times over so that its median is steady. The
	// first set-up of a process is not timed: it also pays for growing the
	// heap, and took up to half as long again as the ones after it. A
	// layers-only run reports no set-up time and sets up once.
	timed := p.setups
	if !e2e {
		timed = 0
	}
	var f *fleet
	var setupSecs []float64
	for i := 0; i <= timed; i++ {
		if f != nil {
			f.close()
		}
		t0 := time.Now()
		var err error
		if f, err = newFleet(ctx, p.cfg); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		if i > 0 {
			setupSecs = append(setupSecs, time.Since(t0).Seconds())
		}
	}
	defer f.close()
	runtime.GC() // the discarded fleets are garbage of the protocol, not of the mediator

	// (2) warm-up A: for its time and, on a slow box, for as long again as
	// it takes every shard to have planned and run its share of fresh
	// texts; it is those, not seconds, that teach the cost history.
	// (3) warm-up B.
	streamsA := streamsFor(f.o, seed, uniqWarmup)
	for done, d := 0, p.warmA; done < warmupPerShard*p.cfg.shards; d = p.warmA / 4 {
		win, err := f.runHealthy(ctx, warmupA, streamsA, d)
		if err != nil {
			return nil, fmt.Errorf("warm-up A: %w", err)
		}
		done += win.queries
	}
	streams := streamsFor(f.o, seed, uniqMeasured)
	if _, err := f.runHealthy(ctx, w, streams, p.warmB); err != nil {
		return nil, fmt.Errorf("warm-up B: %w", err)
	}
	if w.name == "point_hot" {
		if err := f.checkHotPlans(); err != nil {
			return nil, err
		}
	}

	// (4) measurement windows, back to back.
	each := p.measure / time.Duration(p.windows)
	n := p.windows
	if !e2e {
		n = 1 // the probe needs the counters of a load run, not its percentiles
	}
	var wins []*window
	for {
		wins = wins[:0]
		for i := 0; i < n; i++ {
			win, err := f.runHealthy(ctx, w, streams, each)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
			res.Attempted += win.queries
			wins = append(wins, win)
		}
		first, last := wins[0].qps, wins[n-1].qps
		drift := math.Abs(last-first) / math.Min(first, last)
		if drift <= p.driftBound {
			break
		}
		if res.Remeasured == p.retries {
			return nil, fmt.Errorf("%s: throughput drifted %.1f%% between the first window (%.1f q/s) and the last (%.1f q/s), more than the %.0f%% bound, in %d measurements: the mediator has not converged",
				w.name, 100*drift, first, last, 100*p.driftBound, 1+p.retries)
		}
		res.Remeasured++
		fmt.Fprintf(os.Stderr, "%s: throughput drifted %.1f%% from first to last window; measuring again\n", w.name, 100*drift)
	}

	if e2e {
		res.EndToEnd = map[string]summary{"setup_s": summarize("s", setupSecs)}
		for _, win := range wins {
			res.SamplesPerWindow = append(res.SamplesPerWindow, win.queries)
		}
		for _, d := range endToEnd {
			if d.of == nil {
				continue
			}
			vals := make([]float64, len(wins))
			for i, win := range wins {
				vals[i] = d.of(win)
			}
			res.EndToEnd[d.name] = summarize(d.unit, vals)
		}
	}
	if layers {
		var err error
		if res.PerLayer, err = f.probe(ctx, w, seed, wins); err != nil {
			return nil, fmt.Errorf("%s: layer probe: %w", w.name, err)
		}
	}
	return res, nil
}

func streamsFor(o *oracle, seed int64, uniqBase int64) []*stream {
	s := make([]*stream, clients)
	for c := range s {
		s[c] = newStream(o, seed, c, uniqBase)
	}
	return s
}

// runHealthy is runWindow on a fleet on which nothing may fail: a query
// that errs, is shed or answers wrongly fails the run, warm-up or not, and
// so does a window too short to complete one.
func (f *fleet) runHealthy(ctx context.Context, w *workload, streams []*stream, d time.Duration) (*window, error) {
	win, err := f.runWindow(ctx, w, streams, d)
	if err != nil {
		return nil, err
	}
	if win.failed > 0 {
		return nil, fmt.Errorf("%d of %d queries failed on a healthy fleet, first: %w", win.failed, win.queries+win.failed, win.firstErr)
	}
	if win.queries == 0 {
		return nil, fmt.Errorf("a window of %v completed no query", d)
	}
	return win, nil
}

// planFacts is what the guards and the probe read off an optimized plan.
type planFacts struct {
	submits int
	pushed  int // submits that carry a select or project, not a bare get
	reads   int // extents the submits read: what Mediator.ShardTraffic counts
}

func factsOf(plan algebra.Node) planFacts {
	var pf planFacts
	for _, s := range algebra.Submits(plan) {
		pf.submits++
		if _, bare := s.Input.(*algebra.Get); !bare {
			pf.pushed++
		}
		algebra.Walk(s.Input, func(n algebra.Node) {
			if g, ok := n.(*algebra.Get); ok && !g.Ref.Standby {
				pf.reads++
			}
		})
	}
	return pf
}

// checkHotPlans is the guard the cold-start finding asks for: after the
// warm-ups every hot text must be pinned to the pruned, pushed-down plan.
// One text pinned to a no-pushdown plan makes a tenth of the queries two
// hundred times slower, and the prepared cache would keep it so.
func (f *fleet) checkHotPlans() error {
	for _, key := range f.o.hot {
		text := f.o.hotText[key]
		plan, _, err := f.m.Prepare(text)
		if err != nil {
			return fmt.Errorf("point_hot: prepare %q: %w", text, err)
		}
		if pf := factsOf(plan); pf.submits != 1 || pf.pushed != 1 {
			return fmt.Errorf("point_hot: %q is pinned to a plan with %d submits, %d of them pushed down (want 1 and 1): %s", text, pf.submits, pf.pushed, plan)
		}
	}
	return nil
}
