package disco

// Go benchmarks, one per mechanism the package doc in disco.go describes
// (run: go test -bench=. -benchmem). The corresponding human-readable
// tables come from cmd/disco-bench; these give the machine-readable
// timings per operation, plus ablations for the design choices (join
// algorithm, Earley recognition, plan caching, wire encoding). Speed
// claims come from bench/, the repository's gating benchmark
// (bench/README.md).

import (
	"context"
	"fmt"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/core"
	"disco/internal/costmodel"
	"disco/internal/harness"
	"disco/internal/oql"
	"disco/internal/partial"
	"disco/internal/physical"
	"disco/internal/source"
	"disco/internal/types"
)

const paperQuery = `select x.name from x in person where x.salary > 10`

// BenchmarkFigure1Architecture measures the full Figure 1 round trip:
// application -> mediator -> wrappers -> two TCP sources and back.
func BenchmarkFigure1Architecture(b *testing.B) {
	f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 2, RowsPerSource: 100, TCP: true})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.M.Query(paperQuery); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFigure2Pipeline measures the Prototype 0 stages separately.
func BenchmarkFigure2Pipeline(b *testing.B) {
	f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 2, RowsPerSource: 100})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()

	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := oql.ParseQuery(paperQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepare-warm", func(b *testing.B) {
		// Parse + expand + compile + optimize with a hot plan cache.
		if _, _, err := f.M.Prepare(paperQuery); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, _, err := f.M.Prepare(paperQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := f.M.Query(paperQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("execute-distinct", func(b *testing.B) {
		// The distinct path keys every merged row (CanonicalKey); it is
		// where the reusable key buffer shows up.
		const q = `select distinct x.name from x in person where x.salary > 10`
		for i := 0; i < b.N; i++ {
			if _, err := f.M.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAvailabilityScaling measures query latency as sources are added,
// all available (the E1 denominator; unavailable-source latency is the
// evaluation deadline by construction).
func BenchmarkAvailabilityScaling(b *testing.B) {
	for _, n := range []int{1, 2, 4, 8, 16} {
		b.Run(fmt.Sprintf("sources=%d", n), func(b *testing.B) {
			f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: n, RowsPerSource: 20, TCP: true})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.M.Query(paperQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartialEvaluation measures residual construction — the cost the
// §4 semantics adds once outcomes are known (the wait for the deadline is
// workload, not overhead).
func BenchmarkPartialEvaluation(b *testing.B) {
	ref := algebra.ExtentRef{Extent: "person0", Repo: "r0", Source: "person0",
		Iface: "Person", Attrs: []string{"id", "name", "salary"}}
	ref1 := ref
	ref1.Extent, ref1.Repo, ref1.Source = "person1", "r1", "person1"
	sub0 := &algebra.Submit{Repo: "r0", Input: &algebra.Get{Ref: ref}}
	sub1 := &algebra.Submit{Repo: "r1", Input: &algebra.Get{Ref: ref1}}
	pred, err := oql.ParseQuery(`x.salary > 10`)
	if err != nil {
		b.Fatal(err)
	}
	proj, err := oql.ParseQuery(`x.name`)
	if err != nil {
		b.Fatal(err)
	}
	mkBranch := func(sub *algebra.Submit) algebra.Node {
		return &algebra.Map{Expr: proj, Input: &algebra.Select{Pred: pred, Input: &algebra.Bind{Var: "x", Input: sub}}}
	}
	plan := &algebra.Union{Inputs: []algebra.Node{mkBranch(sub0), mkBranch(sub1)}}

	rows := make([]types.Value, 100)
	for i := range rows {
		rows[i] = types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(i))},
			types.Field{Name: "name", Value: types.Str(fmt.Sprintf("p%d", i))},
			types.Field{Name: "salary", Value: types.Int(int64(i))},
		)
	}
	outcomes := map[*algebra.Submit]physical.Outcome{
		sub0: {Err: &physical.UnavailableError{Repo: "r0", Err: context.DeadlineExceeded}},
		sub1: {Bag: types.NewBag(rows...)},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := partial.Residual(context.Background(), plan, outcomes); err != nil {
			b.Fatal(err)
		}
	}
}

// delayEngine adds a fixed service time to every shard call, modeling a
// remote source; it makes the scatter-gather speedup visible (wall time
// stays ~one service time however many partitions fan out).
type delayEngine struct {
	inner source.Engine
	d     time.Duration
}

func (e delayEngine) Query(q string) (*types.Bag, error) {
	time.Sleep(e.d)
	return e.inner.Query(q)
}

func (e delayEngine) Collections() []string { return e.inner.Collections() }

// BenchmarkScatterGather measures the partition fan-out: one logical extent
// split over 1, 4 and 16 repositories, each shard answering after a 2ms
// service time. Near-constant ns/op across partition counts is the parallel
// speedup the scatter-gather operator exists for.
func BenchmarkScatterGather(b *testing.B) {
	for _, parts := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("partitions=%d", parts), func(b *testing.B) {
			m := core.New(core.WithTimeout(10 * time.Second))
			odl := ""
			repos := ""
			for i := 0; i < parts; i++ {
				s := source.NewRelStore()
				if err := s.CreateTable("people", "id", "name", "salary"); err != nil {
					b.Fatal(err)
				}
				for j := 0; j < 64; j++ {
					if err := s.Insert("people", types.Int(int64(i*64+j)),
						types.Str(fmt.Sprintf("p%d_%d", i, j)), types.Int(int64(j))); err != nil {
						b.Fatal(err)
					}
				}
				repo := fmt.Sprintf("r%d", i)
				m.RegisterEngine(repo, delayEngine{inner: s, d: 2 * time.Millisecond})
				odl += repo + ` := Repository(address="mem:` + repo + `");` + "\n"
				if i > 0 {
					repos += ", "
				}
				repos += repo
			}
			odl += `
				w0 := WrapperPostgres();
				interface Person (extent person) {
				    attribute Short id;
				    attribute String name;
				    attribute Short salary;
				}
				extent people of Person wrapper w0 at ` + repos + `;`
			if err := m.ExecODL(odl); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := m.Query(`select x.name from x in people where x.salary > 32`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPartitionPruning measures placement-aware routing: one logical
// extent hash-partitioned by id over 1, 4 and 16 repositories (2ms service
// time each, fan-out bounded at 4 concurrent shard calls, as a production
// mediator would bound it). The "scan" case touches every shard, so its
// latency grows with the partition count (ceil(n/4) waves of 2ms); the
// "pruned" case routes the point query to the key's home shard and stays
// flat at ~one service time regardless of scale.
func BenchmarkPartitionPruning(b *testing.B) {
	for _, parts := range []int{1, 4, 16} {
		m := core.New(core.WithTimeout(10*time.Second), core.WithMaxFanout(4))
		odl := ""
		repos := ""
		for i := 0; i < parts; i++ {
			s := source.NewRelStore()
			if err := s.CreateTable("people", "id", "name", "salary"); err != nil {
				b.Fatal(err)
			}
			// Place each row at its hash shard, matching the declared scheme.
			for id := 0; id < 64; id++ {
				if int(algebra.HashValue(types.Int(int64(id)))%uint64(parts)) != i {
					continue
				}
				if err := s.Insert("people", types.Int(int64(id)),
					types.Str(fmt.Sprintf("p%d", id)), types.Int(int64(id%97))); err != nil {
					b.Fatal(err)
				}
			}
			repo := fmt.Sprintf("r%d", i)
			m.RegisterEngine(repo, delayEngine{inner: s, d: 2 * time.Millisecond})
			odl += repo + ` := Repository(address="mem:` + repo + `");` + "\n"
			if i > 0 {
				repos += ", "
			}
			repos += repo
		}
		// A partitioning scheme is only declarable (and only useful) over
		// more than one repository; the 1-partition baseline goes bare.
		scheme := "\n    partition by hash(id)"
		if parts == 1 {
			scheme = ""
		}
		odl += `
			w0 := WrapperPostgres();
			interface Person (extent person) {
			    attribute Short id;
			    attribute String name;
			    attribute Short salary;
			}
			extent people of Person wrapper w0 at ` + repos + scheme + `;`
		if err := m.ExecODL(odl); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("pruned/partitions=%d", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Query(`select x.name from x in people where x.id = 7`); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("scan/partitions=%d", parts), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := m.Query(`select x.name from x in people where x.salary > 32`); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPreparedStatements measures the repeated-query fast path: the
// first Prepare pays parse+expand+compile+optimize; every further Prepare
// of the same text is one cache lookup.
func BenchmarkPreparedStatements(b *testing.B) {
	f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 4, RowsPerSource: 10})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			// Distinct texts defeat the cache: full pipeline each time.
			q := fmt.Sprintf("select x.name from x in person where x.salary > %d", i%1000)
			if _, _, err := f.M.Prepare(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("prepared", func(b *testing.B) {
		if _, _, err := f.M.Prepare(paperQuery); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, tr, err := f.M.Prepare(paperQuery)
			if err != nil || !tr.CacheHit {
				b.Fatal("expected prepared-statement hit")
			}
		}
	})
}

// BenchmarkPushdown sweeps wrapper capability (E3): the same query against
// the same 2000-row TCP source under increasingly capable wrappers.
func BenchmarkPushdown(b *testing.B) {
	levels := []struct {
		name string
		odl  string
	}{
		{"get", `w0 := Wrapper("sql", ops="get");`},
		{"get-select", `w0 := Wrapper("sql", ops="get,select");`},
		{"get-select-project", `w0 := Wrapper("sql", ops="get,select,project");`},
	}
	const query = `select x.name from x in person0 where x.salary < 100`
	for _, level := range levels {
		b.Run(level.name, func(b *testing.B) {
			f, err := harness.NewPersonFleet(harness.FleetConfig{
				Sources: 1, RowsPerSource: 2000, TCP: true, WrapperODL: level.odl,
			})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.M.Query(query); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if q := f.TotalQueries(); q > 0 {
				b.ReportMetric(float64(f.TotalBytesOut())/float64(q), "source-bytes/query")
			}
		})
	}
}

// BenchmarkCostLearning measures the cost model's record and estimate
// operations (E4's mechanism).
func BenchmarkCostLearning(b *testing.B) {
	h := costmodel.New()
	pred, err := oql.ParseQuery(`salary > 10`)
	if err != nil {
		b.Fatal(err)
	}
	expr := &algebra.Select{Pred: pred, Input: &algebra.Get{
		Ref: algebra.ExtentRef{Extent: "person0", Source: "person0", Attrs: []string{"id", "name", "salary"}},
	}}
	b.Run("record", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			h.Record("r0", expr, time.Millisecond, 10)
		}
	})
	b.Run("estimate-exact", func(b *testing.B) {
		h.Record("r0", expr, time.Millisecond, 10)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if est := h.Estimate("r0", expr); est.Basis != costmodel.BasisExact {
				b.Fatal("expected exact basis")
			}
		}
	})
	b.Run("estimate-default", func(b *testing.B) {
		fresh := costmodel.New()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if est := fresh.Estimate("r0", expr); est.Basis != costmodel.BasisDefault {
				b.Fatal("expected default basis")
			}
		}
	})
}

// BenchmarkSourceScaling measures in-process query latency as the DBA adds
// same-type sources (E5).
func BenchmarkSourceScaling(b *testing.B) {
	for _, n := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("sources=%d", n), func(b *testing.B) {
			f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: n, RowsPerSource: 50})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.M.Query(paperQuery); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkModelingTools compares direct extents, mapped types and views
// over the same data (E6).
func BenchmarkModelingTools(b *testing.B) {
	f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 2, RowsPerSource: 200})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	if err := f.M.ExecODL(`
		interface PersonPrime {
		    attribute String n;
		    attribute Short s;
		}
		extent personprime0 of PersonPrime wrapper w0 repository r0
		    map ((person0=personprime0),(name=n),(salary=s));
		define wealthy as
		    select struct(name: x.name, salary: x.salary)
		    from x in person where x.salary > 500;
	`); err != nil {
		b.Fatal(err)
	}
	cases := []struct{ name, q string }{
		{"direct", `select x.name from x in person0 where x.salary > 500`},
		{"mapped", `select x.n from x in personprime0 where x.s > 500`},
		{"view", `select w.name from w in wealthy`},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.M.Query(c.q); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCompiledEval compares the two expression evaluators on a
// select+project pipeline's per-tuple work: the tree-walking reference
// (oql.Eval over an Env chain rebuilt per tuple, the pre-PR4 hot path) vs
// the closure-compiled program (oql.Compile, tuples bound into a reusable
// flat slot environment). The acceptance bar is ≥2x time and ≥50% allocs.
func BenchmarkCompiledEval(b *testing.B) {
	const tuples = 1024
	rows := make([]*types.Struct, tuples)
	for i := range rows {
		rows[i] = types.NewStruct(types.Field{Name: "x", Value: types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(i))},
			types.Field{Name: "name", Value: types.Str(fmt.Sprintf("p%d", i))},
			types.Field{Name: "salary", Value: types.Int(int64(i % 977))},
		)})
	}
	pred, err := oql.ParseQuery(`x.salary > 10 and x.name != "nobody"`)
	if err != nil {
		b.Fatal(err)
	}
	proj, err := oql.ParseQuery(`struct(name: x.name, pay: x.salary * 2)`)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("tree-walk", func(b *testing.B) {
		// evalWith as the pre-PR4 operators ran it: each operator rebuilt
		// the Env chain from the tuple's fields per expression evaluation
		// (MkSelect for the predicate, MkProj for the projection).
		evalWith := func(e oql.Expr, st *types.Struct) (types.Value, error) {
			var env *oql.Env
			for _, f := range st.Fields() {
				env = env.Bind(f.Name, f.Value)
			}
			return oql.Eval(e, env, oql.EmptyResolver)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kept := 0
			for _, st := range rows {
				cond, err := evalWith(pred, st)
				if err != nil {
					b.Fatal(err)
				}
				keep, err := types.Truthy(cond)
				if err != nil {
					b.Fatal(err)
				}
				if !keep {
					continue
				}
				if _, err := evalWith(proj, st); err != nil {
					b.Fatal(err)
				}
				kept++
			}
			if kept == 0 {
				b.Fatal("predicate filtered everything")
			}
		}
	})
	b.Run("compiled", func(b *testing.B) {
		predProg, err := oql.Compile(pred)
		if err != nil {
			b.Fatal(err)
		}
		projProg, err := oql.Compile(proj)
		if err != nil {
			b.Fatal(err)
		}
		predEnv := predProg.NewEnv(oql.EmptyResolver)
		projEnv := projProg.NewEnv(oql.EmptyResolver)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kept := 0
			for _, st := range rows {
				predEnv.BindStruct(st)
				cond, err := predProg.Eval(predEnv)
				if err != nil {
					b.Fatal(err)
				}
				keep, err := types.Truthy(cond)
				if err != nil {
					b.Fatal(err)
				}
				if !keep {
					continue
				}
				projEnv.BindStruct(st)
				if _, err := projProg.Eval(projEnv); err != nil {
					b.Fatal(err)
				}
				kept++
			}
			if kept == 0 {
				b.Fatal("predicate filtered everything")
			}
		}
	})
}

// BenchmarkVolcano measures the Volcano layer's batch ablation: the same
// select+project operator pipeline over 8192 tuples driven with a
// capacity-1 output batch (tuple-at-a-time iteration, one operator-stack
// traversal per tuple) vs full types.BatchSize batches.
func BenchmarkVolcano(b *testing.B) {
	const n = 8192
	rows := make([]types.Value, n)
	for i := range rows {
		rows[i] = types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(i))},
			types.Field{Name: "name", Value: types.Str(fmt.Sprintf("p%d", i))},
			types.Field{Name: "salary", Value: types.Int(int64(i % 977))},
		)
	}
	bag := types.NewBag(rows...)
	pred, err := oql.ParseQuery(`x.salary > 488`)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name string
		cap  int
	}{{"tuple", 1}, {"batched", types.BatchSize}} {
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				op := &physical.MkProj{
					Cols: []algebra.Col{
						{Name: "name", Expr: &oql.Path{Base: &oql.Ident{Name: "x"}, Field: "name"}},
					},
					Input: &physical.MkSelect{
						Pred:  pred,
						Input: &physical.MkBind{Var: "x", Input: &physical.ConstScan{Bag: bag}},
					},
				}
				if err := op.Open(context.Background()); err != nil {
					b.Fatal(err)
				}
				batch := types.NewBatch(mode.cap)
				got := 0
				for {
					err := op.NextBatch(batch)
					if err != nil {
						break
					}
					got += batch.Len()
				}
				op.Close()
				if got == 0 {
					b.Fatal("pipeline produced nothing")
				}
			}
		})
	}
}

// --- ablations ---------------------------------------------------------------

// BenchmarkJoinAlgorithms compares the two join implementations on the same
// equi-join input (the implementation rule prefers hash).
func BenchmarkJoinAlgorithms(b *testing.B) {
	mkRows := func(n int, field string) *types.Bag {
		rows := make([]types.Value, n)
		for i := range rows {
			rows[i] = types.NewStruct(
				types.Field{Name: field, Value: types.NewStruct(
					types.Field{Name: "id", Value: types.Int(int64(i))},
				)},
			)
		}
		return types.NewBag(rows...)
	}
	const n = 300
	left, right := mkRows(n, "x"), mkRows(n, "y")
	pred, err := oql.ParseQuery(`x.id = y.id`)
	if err != nil {
		b.Fatal(err)
	}
	lk, _ := oql.ParseQuery(`x.id`)
	rk, _ := oql.ParseQuery(`y.id`)
	rt := &physical.Runtime{}

	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op := &physical.HashJoin{
				L: &physical.ConstScan{Bag: left}, R: &physical.ConstScan{Bag: right},
				LKey: lk, RKey: rk,
			}
			out, err := physical.Drain(context.Background(), op)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatalf("rows = %d", len(out))
			}
		}
	})
	b.Run("nested-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			op := &physical.NLJoin{
				L: &physical.ConstScan{Bag: left}, R: &physical.ConstScan{Bag: right},
				Pred: pred,
			}
			out, err := physical.Drain(context.Background(), op)
			if err != nil {
				b.Fatal(err)
			}
			if len(out) != n {
				b.Fatalf("rows = %d", len(out))
			}
		}
	})
	_ = rt
}

// BenchmarkEarleyRecognizer measures the wrapper grammar check the
// optimizer performs per candidate submit.
func BenchmarkEarleyRecognizer(b *testing.B) {
	g := capability.Standard(capability.FullOpSet())
	pred, err := oql.ParseQuery(`salary > 10 and name != "Bob"`)
	if err != nil {
		b.Fatal(err)
	}
	expr := &algebra.Project{
		Cols: []algebra.Col{{Name: "name", Expr: &oql.Ident{Name: "name"}}},
		Input: &algebra.Select{Pred: pred, Input: &algebra.Get{
			Ref: algebra.ExtentRef{Extent: "person0", Source: "person0"},
		}},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.AcceptsExpr(expr) {
			b.Fatal("grammar should accept")
		}
	}
}

// BenchmarkPlanCache measures optimization with and without the plan cache
// (§3.3's cached-plan requirement).
func BenchmarkPlanCache(b *testing.B) {
	f, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 4, RowsPerSource: 10})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	b.Run("hit", func(b *testing.B) {
		if _, _, err := f.M.Prepare(paperQuery); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, tr, err := f.M.Prepare(paperQuery); err != nil || !tr.CacheHit {
				b.Fatal("expected cache hit")
			}
		}
	})
}

// BenchmarkWireValueCodec measures the tagged value encoding used on every
// source round trip, encode and decode apart. "rows=100" is a small answer
// with a float column; "scan_wide_shard" is one shard's answer to bench/'s
// scan_wide query: 512 rows of {id int, name str, salary int}.
func BenchmarkWireValueCodec(b *testing.B) {
	mixed := make([]types.Value, 100)
	for i := range mixed {
		mixed[i] = types.NewStruct(
			types.Field{Name: "id", Value: types.Int(int64(i))},
			types.Field{Name: "name", Value: types.Str(fmt.Sprintf("person-%d", i))},
			types.Field{Name: "salary", Value: types.Float(float64(i) * 1.5)},
		)
	}
	shard := make([]types.Value, 512)
	for i := range shard {
		id := int64(i * 16)
		shard[i] = types.NewStruct(
			types.Field{Name: "id", Value: types.Int(id)},
			types.Field{Name: "name", Value: types.Str(fmt.Sprintf("person-%06d", id))},
			types.Field{Name: "salary", Value: types.Int(id * 7919 % 250)},
		)
	}
	for _, c := range []struct {
		name string
		v    types.Value
	}{
		{"rows=100", types.NewBag(mixed...)},
		{"scan_wide_shard", types.NewBag(shard...)},
	} {
		data, err := types.EncodeValue(c.v)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name+"/encode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := types.EncodeValue(c.v); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(c.name+"/decode", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				if _, err := types.DecodeValue(data); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMediatorComposition measures the M-over-M round trip of
// Figure 1: an upper mediator reaching data through a lower mediator that
// federates two TCP sources.
func BenchmarkMediatorComposition(b *testing.B) {
	lower, err := harness.NewPersonFleet(harness.FleetConfig{Sources: 2, RowsPerSource: 50, TCP: true})
	if err != nil {
		b.Fatal(err)
	}
	defer lower.Close()
	lowerSrv, err := lower.M.Serve("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer lowerSrv.Close()

	upper := harnessUpper(b, lowerSrv.Addr())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := upper.Query(paperQuery); err != nil {
			b.Fatal(err)
		}
	}
}

func harnessUpper(b *testing.B, lowerAddr string) *core.Mediator {
	b.Helper()
	upper := core.New(core.WithTimeout(5 * time.Second))
	if err := upper.ExecODL(`
		rlower := Repository(address="` + lowerAddr + `");
		wmed := Wrapper("mediator");
		interface Person (extent staff) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent person of Person wrapper wmed repository rlower;
	`); err != nil {
		b.Fatal(err)
	}
	return upper
}

// BenchmarkOQLParse measures the front of the pipeline on a representative
// reconciliation view.
func BenchmarkOQLParse(b *testing.B) {
	const src = `select struct(name: x.name, salary: sum(select z.salary from z in person where x.id = z.id))
		from x in person* where x.salary > 10 and x.name != "nobody"`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oql.ParseQuery(src); err != nil {
			b.Fatal(err)
		}
	}
}
