package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/physical"
	"disco/internal/source"
	"disco/internal/types"
	"disco/internal/wire"
	"disco/internal/wrapper"
)

// perLayer is every layer metric the probe emits, in the order LAYERS.md
// prints them. A layer is a Go package under internal/. Times are medians
// in microseconds over the sampled queries (or over their submits, for the
// metrics of one submit), taken by one goroutine with no concurrent load.
var perLayer = []metricDef{
	{name: "probe.e2e_serial_us", unit: "us"},
	{name: "core.execute_us", unit: "us"},
	{name: "oql.parse_us", unit: "us"},
	{name: "core.prepare_hit_us", unit: "us"},
	{name: "core.prepare_miss_us", unit: "us"},
	{name: "core.expand_us", unit: "us"},
	{name: "algebra.compile_us", unit: "us"},
	{name: "optimizer.optimize_us", unit: "us"},
	{name: "core.prepared_hit_share", unit: "ratio"},
	{name: "optimizer.pushdown_share", unit: "ratio"},
	{name: "core.submits_per_query", unit: "count"},
	{name: "wrapper.tosql_us", unit: "us"},
	{name: "wire.roundtrip_us", unit: "us"},
	{name: "wire.transport_us", unit: "us"},
	{name: "source.parse_us", unit: "us"},
	{name: "source.query_us", unit: "us"},
	{name: "source.eval_us", unit: "us"},
	{name: "types.encode_us", unit: "us"},
	{name: "types.decode_us", unit: "us"},
	{name: "wire.response_bytes", unit: "bytes"},
	{name: "wire.rows_per_submit", unit: "count"},
	{name: "physical.run_us", unit: "us"},
	{name: "physical.rows_out", unit: "count"},
	{name: "core.unattributed_us", unit: "us"},
	{name: "core.unattributed_share", unit: "ratio"},
	{name: "core.fanout_busy_share", unit: "ratio"},
	{name: "wire.requests_per_submit", unit: "ratio"},
	{name: "wire.cancelled_per_query", unit: "ratio"},
	{name: "wire.bytes_out_per_query", unit: "bytes"},
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// samples collects one metric's observations.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// probe replays sampled queries of the workload through the public
// functions of each layer, one layer at a time, from outside: the mediator
// carries no tracing yet, so the only spans are the ones around these
// calls. wins are the windows of the load run that came before; the wire
// counters per submit and per query are taken from them, because only a
// run under load shows hedges, retries and probes.
func (f *fleet) probe(ctx context.Context, w *workload, seed int64, wins []*window) (map[string]value, error) {
	// The probe owns its wire clients: it must time a round trip without
	// the mediator's routing around it.
	probeClients := make([]*wire.Client, len(f.servers))
	for i, srv := range f.servers {
		probeClients[i] = wire.NewClient(srv.Addr())
		defer probeClients[i].Close()
		if err := probeClients[i].Ping(ctx); err != nil { // dial now, not inside a timed call
			return nil, err
		}
	}

	obs := samples{}
	st := newStream(f.o, seed+int64(clients), 0, uniqProbe) // a stream no client of the load run had
	var first planFacts                                     // of the first sample: every later one must have as many submits
	hits, pushed, submits := 0, 0, 0
	for i := 0; i < w.samples; i++ {
		q := w.next(st)
		pf, hit, err := f.probeQuery(ctx, w, q, probeClients, obs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", q.name(), err)
		}
		if i == 0 {
			first = pf
		}
		if pf.submits != first.submits || pf.reads != first.reads {
			return nil, fmt.Errorf("%s: plan has %d submits, the first sample's had %d: the count does not repeat", q.name(), pf.submits, first.submits)
		}
		if hit {
			hits++
		}
		pushed += pf.pushed
		submits += pf.submits
	}

	// Misses last: each one inserts into the prepared cache and may evict a
	// text the samples above needed to find there.
	miss := newStream(f.o, seed, 0, uniqMiss)
	for i := 0; i < w.samples; i++ {
		text := w.missText(miss)
		t0 := time.Now()
		_, tr, err := f.m.Prepare(text)
		d := time.Since(t0)
		if err != nil {
			return nil, fmt.Errorf("prepare %q: %w", text, err)
		}
		if tr.CacheHit {
			return nil, fmt.Errorf("prepare %q: meant as a miss, but a cache had it", text)
		}
		obs.add("core.prepare_miss_us", micros(d))
		obs.add("core.expand_us", micros(tr.Expand))
		obs.add("algebra.compile_us", micros(tr.Compile))
		obs.add("optimizer.optimize_us", micros(tr.Optimize))
	}

	out := map[string]value{}
	for _, d := range perLayer {
		if vals, ok := obs[d.name]; ok {
			out[d.name] = value{Unit: d.unit, Value: median(vals)}
		}
	}
	set := func(name string, v float64) {
		for _, d := range perLayer {
			if d.name == name {
				out[name] = value{Unit: d.unit, Value: v}
			}
		}
	}
	set("core.submits_per_query", float64(first.submits))
	set("core.prepared_hit_share", float64(hits)/float64(w.samples))
	set("optimizer.pushdown_share", float64(pushed)/float64(submits))

	// The load run's counters. Every query of a fixed plan shape makes the
	// same number of shard reads, so reads per query must equal the plan's.
	var load counters
	queries := 0
	for _, win := range wins {
		queries += win.queries
		load.requests += win.delta.requests
		load.cancelled += win.delta.cancelled
		load.bytesOut += win.delta.bytesOut
		load.shardReads += win.delta.shardReads
	}
	if load.shardReads != int64(queries*first.reads) {
		return nil, fmt.Errorf("the load run made %d shard reads in %d queries, the plan has %d per query", load.shardReads, queries, first.reads)
	}
	set("wire.requests_per_submit", float64(load.requests)/float64(load.shardReads))
	set("wire.cancelled_per_query", float64(load.cancelled)/float64(queries))
	set("wire.bytes_out_per_query", float64(load.bytesOut)/float64(queries))
	return out, nil
}

// probeQuery times one sampled query through every layer and reports the
// facts of its plan and whether the mediator had it prepared.
func (f *fleet) probeQuery(ctx context.Context, w *workload, q query, probeClients []*wire.Client, obs samples) (planFacts, bool, error) {
	var pf planFacts

	// The whole query, serially, as the load run issues it.
	t0 := time.Now()
	v, tr, err := f.m.QueryTraced(q.text)
	e2e := time.Since(t0)
	if err != nil {
		return pf, false, err
	}
	if err := w.check(f.o, q, v, make([]uint64, f.o.seenWords())); err != nil {
		return pf, false, err
	}
	obs.add("probe.e2e_serial_us", micros(e2e))
	obs.add("core.execute_us", micros(tr.Execute))
	hit := tr.CacheHit
	front := tr.Parse + tr.Expand + tr.Compile + tr.Optimize // what this query paid before executing

	t0 = time.Now()
	if _, err := oql.ParseQuery(q.text); err != nil {
		return pf, false, err
	}
	obs.add("oql.parse_us", micros(time.Since(t0)))

	// The text is prepared now, whatever it was before.
	t0 = time.Now()
	plan, ptr, err := f.m.Prepare(q.text)
	prepareHit := time.Since(t0)
	if err != nil {
		return pf, false, err
	}
	if !ptr.CacheHit {
		return pf, false, fmt.Errorf("not prepared right after it ran")
	}
	obs.add("core.prepare_hit_us", micros(prepareHit))
	if hit {
		front = prepareHit
	}

	pf = factsOf(plan)

	// Each submit, one at a time, through wrapper, wire, source and codec.
	// canned keeps the answers for the replay below.
	canned := map[string]*types.Bag{}
	submitKey := func(repo string, expr algebra.Node) string { return repo + "\x00" + expr.String() }
	var chain, busy time.Duration // per-query sums over the submits
	for _, s := range algebra.Submits(plan) {
		t0 = time.Now()
		src, err := algebra.ToSource(s.Input)
		if err != nil {
			return pf, false, err
		}
		sql, err := wrapper.ToSQL(src)
		tosql := time.Since(t0)
		if err != nil {
			return pf, false, err
		}
		obs.add("wrapper.tosql_us", micros(tosql))

		var repo int
		if _, err := fmt.Sscanf(s.Repo, "r%d", &repo); err != nil || repo < 0 || repo >= len(f.servers) {
			return pf, false, fmt.Errorf("submit names repository %q, which the fixture did not declare", s.Repo)
		}

		t0 = time.Now()
		raw, err := probeClients[repo].Query(ctx, wire.LangSQL, sql)
		roundtrip := time.Since(t0)
		if err != nil {
			return pf, false, err
		}
		obs.add("wire.roundtrip_us", micros(roundtrip))
		obs.add("wire.response_bytes", float64(len(raw)))

		t0 = time.Now()
		dv, err := types.DecodeValue(raw)
		decode := time.Since(t0)
		if err != nil {
			return pf, false, err
		}
		bag, ok := dv.(*types.Bag)
		if !ok {
			return pf, false, fmt.Errorf("source answered %q with %s, want a bag", sql, dv.Kind())
		}
		obs.add("types.decode_us", micros(decode))
		obs.add("wire.rows_per_submit", float64(bag.Len()))
		canned[submitKey(s.Repo, s.Input)] = bag

		t0 = time.Now()
		if _, err := source.ParseSQL(sql); err != nil {
			return pf, false, err
		}
		parse := time.Since(t0)
		t0 = time.Now()
		local, err := f.stores[repo].QueryContext(ctx, sql)
		srcQuery := time.Since(t0)
		if err != nil {
			return pf, false, err
		}
		obs.add("source.parse_us", micros(parse))
		obs.add("source.query_us", micros(srcQuery))
		obs.add("source.eval_us", micros(srcQuery-parse))

		t0 = time.Now()
		if _, err := types.EncodeValue(local); err != nil {
			return pf, false, err
		}
		encode := time.Since(t0)
		obs.add("types.encode_us", micros(encode))
		obs.add("wire.transport_us", micros(roundtrip-srcQuery-encode))

		chain += tosql + roundtrip + decode
		busy += roundtrip + decode
	}

	// The mediator's operators alone: every submit answers at once from
	// the bags fetched above, so what is left is operator, scatter-gather
	// merge, join and aggregate time.
	rt := &physical.Runtime{Submit: func(_ context.Context, repo string, expr algebra.Node) (*types.Bag, error) {
		bag, ok := canned[submitKey(repo, expr)]
		if !ok {
			return nil, fmt.Errorf("probe: no canned answer for submit(%s, %s)", repo, expr)
		}
		return bag, nil
	}}
	t0 = time.Now()
	pp, err := physical.Build(plan, rt)
	if err != nil {
		return pf, false, err
	}
	pv, err := pp.Run(ctx)
	run := time.Since(t0)
	if err != nil {
		return pf, false, err
	}
	if err := w.check(f.o, q, pv, make([]uint64, f.o.seenWords())); err != nil {
		return pf, false, fmt.Errorf("the layer-by-layer replay gave a different answer: %w", err)
	}
	obs.add("physical.run_us", micros(run))
	rows := 1
	if n, err := types.NumElements(pv); err == nil {
		rows = n
	}
	obs.add("physical.rows_out", float64(rows))

	// What the serial query took beyond the layers timed above: routing,
	// admission, breaker, balance, hedge arming, cost recording. It means
	// something only where the chain is serial — one submit.
	un := e2e - (front + chain + run)
	obs.add("core.unattributed_us", micros(un))
	obs.add("core.unattributed_share", float64(un)/float64(e2e))
	// How busy the fan-out kept the processors: summed per-shard work over
	// the time the execution took on all of them.
	obs.add("core.fanout_busy_share", float64(busy)/(float64(tr.Execute)*float64(runtime.GOMAXPROCS(0))))
	return pf, hit, nil
}
