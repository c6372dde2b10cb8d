package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"disco/internal/types"
)

// miniProtocol is the benchmark's protocol shrunk to a 4-shard fleet and a
// 300 ms measurement, with the drift guard off: a window of 150 ms proves
// nothing about convergence.
func miniProtocol() protocol {
	return protocol{
		cfg:        fixtureConfig{shards: 4, people: 2048},
		setups:     1,
		warmA:      100 * time.Millisecond,
		warmB:      50 * time.Millisecond,
		measure:    300 * time.Millisecond,
		windows:    2,
		driftBound: 1e9,
	}
}

// TestMiniatureWorkloads runs every workload end to end and through the
// layer probe, oracle on, and checks that the run emits exactly the
// metrics the binary declares.
func TestMiniatureWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			small := *w
			small.samples = 10
			res, err := runWorkload(context.Background(), &small, 1, miniProtocol(), true, true)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
			}
			for _, d := range endToEnd {
				if s, ok := res.EndToEnd[d.name]; !ok || s.Unit != d.unit || !(s.Median > 0) {
					t.Errorf("end-to-end %s = %+v, want a positive value in %s", d.name, s, d.unit)
				}
			}
			if len(res.EndToEnd) != len(endToEnd) {
				t.Errorf("emitted %d end-to-end metrics, declared %d", len(res.EndToEnd), len(endToEnd))
			}
			for _, d := range perLayer {
				if v, ok := res.PerLayer[d.name]; !ok || v.Unit != d.unit {
					t.Errorf("per-layer %s = %+v, want a value in %s", d.name, v, d.unit)
				}
			}
			if len(res.PerLayer) != len(perLayer) {
				t.Errorf("emitted %d per-layer metrics, declared %d", len(res.PerLayer), len(perLayer))
			}
			if got := res.PerLayer["optimizer.pushdown_share"].Value; got != 1 {
				t.Errorf("pushdown share %v, want 1", got)
			}
		})
	}
}

func TestPercentile(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 5.5}, {0.9, 9.1}, {0.99, 9.91}, {1, 10}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.99); got != 7 {
		t.Errorf("percentile of one sample = %v", got)
	}
}

func TestMedianOfWindows(t *testing.T) {
	in := []float64{4, 1, 3, 2}
	s := summarize("ms", in)
	if s.Median != 2.5 || s.Min != 1 || s.Max != 4 || s.Unit != "ms" {
		t.Errorf("summarize = %+v", s)
	}
	if in[0] != 4 {
		t.Error("median sorted its input in place")
	}
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median of three = %v", got)
	}
	if got := s.spread(); got != 1.2 {
		t.Errorf("spread = %v, want 1.2", got)
	}
}

func TestVerdicts(t *testing.T) {
	steady := func(m float64) summary { return summarize("x", []float64{m * 0.99, m, m, m * 1.01}) }
	lower := specMetric{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := specMetric{Name: "throughput_qps", Better: "higher", Bound: 0.10}
	for _, c := range []struct {
		name     string
		m        specMetric
		old, cur summary
		want     string
	}{
		{"lower is better, rose past the bound", lower, steady(100), steady(115), worse},
		{"lower is better, fell past the bound", lower, steady(100), steady(85), better},
		{"lower is better, within the bound", lower, steady(100), steady(108), same},
		{"higher is better, fell past the bound", higher, steady(100), steady(85), worse},
		{"higher is better, rose past the bound", higher, steady(100), steady(115), better},
		{"windows disagree by more than the bound", lower, steady(100), summarize("x", []float64{90, 100, 100, 112}), unresolved},
	} {
		if got := verdict(c.m, c.old, c.cur); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
	if exactVerdict(16, 16) != same || exactVerdict(16, 32) != worse || exactVerdict(32, 16) != worse {
		t.Error("an exact gate must call any difference worse")
	}
}

func TestCompareReportsWorse(t *testing.T) {
	s := &spec{EndToEnd: []specMetric{{Name: "throughput_qps", Unit: "1/s", Better: "higher", Bound: 0.10}}}
	file := func(qps, submits, failed float64) *resultFile {
		return &resultFile{Workloads: map[string]*workloadResult{"point_hot": {
			FailedShare: failed,
			EndToEnd:    map[string]summary{"throughput_qps": summarize("1/s", []float64{qps, qps, qps, qps})},
			PerLayer:    map[string]value{"core.submits_per_query": {"count", submits}},
		}}}
	}
	for _, c := range []struct {
		name     string
		old, cur *resultFile
		want     bool
	}{
		{"equal files", file(1000, 1, 0), file(1000, 1, 0), false},
		{"throughput fell", file(1000, 1, 0), file(800, 1, 0), true},
		{"a submit more", file(1000, 1, 0), file(1000, 2, 0), true},
		{"a failure", file(1000, 1, 0), file(1000, 1, 0.001), true},
		{"workload gone", file(1000, 1, 0), &resultFile{Workloads: map[string]*workloadResult{}}, true},
	} {
		var out bytes.Buffer
		if got := compare(&out, s, c.old, c.cur); got != c.want {
			t.Errorf("%s: any worse = %v, want %v\n%s", c.name, got, c.want, out.String())
		}
	}
}

// TestGeneratorDeterminism: the seed, and nothing else, decides the texts.
func TestGeneratorDeterminism(t *testing.T) {
	cfg := fixtureConfig{shards: 4, people: 2048}
	names := make([]string, cfg.people)
	for id := range names {
		names[id] = personName(id)
	}
	o := newOracle(cfg, names)
	texts := func(w *workload, seed int64) []string {
		s := newStream(o, seed, 0, uniqMeasured)
		out := make([]string, 1000)
		for i := range out {
			out[i] = w.next(s).text
		}
		return out
	}
	for _, name := range []string{"point_hot", "point_adhoc"} {
		w := workloadByName(name)
		a, b, c := texts(w, 1), texts(w, 1), texts(w, 2)
		if strings.Join(a, "\n") != strings.Join(b, "\n") {
			t.Errorf("%s: the same seed gave different texts", name)
		}
		if strings.Join(a, "\n") == strings.Join(c, "\n") {
			t.Errorf("%s: different seeds gave the same texts", name)
		}
	}
	// point_adhoc must never repeat a text, or the optimizer's plan cache
	// starts answering and the workload drifts.
	seen := map[string]bool{}
	for c := 0; c < clients; c++ {
		s := newStream(o, 1, c, uniqMeasured)
		for i := 0; i < 5000; i++ {
			q := adhocQuery(s)
			if seen[q.text] {
				t.Fatalf("point_adhoc repeated %q", q.text)
			}
			seen[q.text] = true
		}
	}
	if len(o.hot) != hotKeys {
		t.Errorf("%d hot keys, want %d", len(o.hot), hotKeys)
	}
	shards := map[int]int{}
	for _, k := range o.hot {
		shards[cfg.shardOf(k)]++
	}
	if len(shards) != cfg.shards {
		t.Errorf("hot keys cover %d of %d shards", len(shards), cfg.shards)
	}
}

// TestOracleRejectsWrongAnswers: a check that accepted anything would make
// every run "correct".
func TestOracleRejectsWrongAnswers(t *testing.T) {
	cfg := fixtureConfig{shards: 4, people: 2048}
	names := make([]string, cfg.people)
	for id := range names {
		names[id] = personName(id)
	}
	o := newOracle(cfg, names)
	seen := make([]uint64, o.seenWords())

	person := func(id int) types.Value {
		return types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(id))},
			types.Field{Name: "name", Value: types.Str(names[id])},
			types.Field{Name: "salary", Value: types.Int(int64(salaryOf(id)))})
	}
	var scan []types.Value
	for id := 0; id < cfg.people; id++ {
		if salaryOf(id) < scanSalaryBelow {
			scan = append(scan, person(id))
		}
	}
	q := query{text: scanWideText, key: -1}
	if err := checkScan(o, q, types.NewBag(scan...), seen); err != nil {
		t.Fatalf("the right scan answer was rejected: %v", err)
	}
	if checkScan(o, q, types.NewBag(scan[1:]...), seen) == nil {
		t.Error("a scan answer missing a row was accepted")
	}
	dup := append(append([]types.Value(nil), scan[1:]...), scan[1])
	if checkScan(o, q, types.NewBag(dup...), seen) == nil {
		t.Error("a scan answer with one row twice and one missing was accepted")
	}

	var join []types.Value
	for id := 0; id < cfg.people; id++ {
		for k := 0; k < ordersPerPerson; k++ {
			if salaryOf(id) < joinSalaryBelow && amountOf(id, k) < joinAmountBelow {
				join = append(join, types.NewStruct(
					types.Field{Name: "n", Value: types.Str(names[id])},
					types.Field{Name: "a", Value: types.Int(int64(amountOf(id, k)))}))
			}
		}
	}
	jq := query{text: joinCopartText, key: -1}
	if err := checkJoin(o, jq, types.NewBag(join...), seen); err != nil {
		t.Fatalf("the right join answer was rejected: %v", err)
	}
	jdup := append(append([]types.Value(nil), join[1:]...), join[1])
	if checkJoin(o, jq, types.NewBag(jdup...), seen) == nil {
		t.Error("a join answer with one pair twice and one missing was accepted")
	}

	if checkAgg(o, query{text: aggRollupText}, types.Int(o.aggSum+1), nil) == nil {
		t.Error("a wrong sum was accepted")
	}
	if err := checkAgg(o, query{text: aggRollupText}, types.Int(o.aggSum), nil); err != nil {
		t.Errorf("the right sum was rejected: %v", err)
	}
	pq := query{text: "q", key: 5}
	if checkPoint(o, pq, types.NewBag(types.Str(names[6])), nil) == nil {
		t.Error("another person's name was accepted")
	}
	if checkPoint(o, pq, types.NewBag(), nil) == nil {
		t.Error("an empty point answer was accepted")
	}
}

// TestBenchmarkJSON: the file the driver reads lists exactly the workloads
// and metrics the binary emits, within the contract's limits.
func TestBenchmarkJSON(t *testing.T) {
	s, err := loadSpec("")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("%d workloads listed, %d built", len(s.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if s.Workloads[i].Name != w.name || s.Workloads[i].Why != w.why {
			t.Errorf("workload %d is listed as %+v, built as %s: %s", i, s.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the limit is 200", w.name, len(w.why))
		}
	}
	match := func(kind string, listed []specMetric, emitted []metricDef) {
		if len(listed) != len(emitted) {
			t.Fatalf("%d %s metrics listed, %d emitted", len(listed), kind, len(emitted))
		}
		for i, d := range emitted {
			m := listed[i]
			if m.Name != d.name || m.Unit != d.unit {
				t.Errorf("%s metric %d is listed as %s in %s, emitted as %s in %s", kind, i, m.Name, m.Unit, d.name, d.unit)
			}
			if m.Better != "lower" && m.Better != "higher" {
				t.Errorf("%s: better is %q", m.Name, m.Better)
			}
		}
	}
	match("end-to-end", s.EndToEnd, endToEnd)
	match("per-layer", s.PerLayer, perLayer)
	for _, m := range s.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v is outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if m, ok := s.endToEnd("setup_s"); !ok || m.Unit != "s" || m.Better != "lower" {
		t.Errorf("setup_s is listed as %+v", m)
	}
	if s.RunSeconds < 1 || s.RunSeconds > 60 {
		t.Errorf("run_seconds %d is outside 1..60", s.RunSeconds)
	}
	if len(s.Paths) != 1 || s.Paths[0] != "bench" {
		t.Errorf("paths = %v", s.Paths)
	}
}
