package core

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestPreparedStatementCacheHit: a repeated query skips the whole front
// half of the pipeline — the second Prepare reports a cache hit with every
// stage timing at zero, and returns the identical plan.
func TestPreparedStatementCacheHit(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`

	plan1, cold, err := m.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.CacheHit {
		t.Fatal("first Prepare must miss")
	}
	plan2, warm, err := m.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if !warm.CacheHit {
		t.Fatal("second Prepare must hit the prepared-statement cache")
	}
	if warm.Parse != 0 || warm.Expand != 0 || warm.Compile != 0 || warm.Optimize != 0 {
		t.Errorf("hit ran pipeline stages: parse=%v expand=%v compile=%v optimize=%v",
			warm.Parse, warm.Expand, warm.Compile, warm.Optimize)
	}
	if plan1 != plan2 {
		t.Error("hit must return the cached plan instance")
	}
	if warm.Plan != cold.Plan {
		t.Errorf("hit plan string %q != cold %q", warm.Plan, cold.Plan)
	}
	// The cached plan still executes.
	if _, err := m.Query(q); err != nil {
		t.Fatal(err)
	}
}

// TestPreparedStatementCacheInvalidation: any catalog change (here an
// ExecODL extent drop) must flush the cache — the same query text
// recompiles and reports CacheHit=false, and its answer reflects the new
// catalog.
func TestPreparedStatementCacheInvalidation(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`

	if _, tr, err := m.QueryTraced(q); err != nil || tr.CacheHit {
		t.Fatalf("first run: err=%v hit=%v", err, tr != nil && tr.CacheHit)
	}
	if _, tr, err := m.QueryTraced(q); err != nil || !tr.CacheHit {
		t.Fatalf("second run must hit")
	}
	if err := m.ExecODL(`drop extent person1;`); err != nil {
		t.Fatal(err)
	}
	_, tr, err := m.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CacheHit {
		t.Error("catalog change must invalidate the prepared-statement cache")
	}
	// And the recompiled plan hits again afterwards.
	if _, tr, err := m.QueryTraced(q); err != nil || !tr.CacheHit {
		t.Fatalf("post-invalidation rerun must hit again (err=%v)", err)
	}
}

// TestPreparedStatementCacheViewInvalidation: defining a view is a catalog
// change too — cached plans compiled without it must not survive.
func TestPreparedStatementCacheViewInvalidation(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person0`
	if _, _, err := m.QueryTraced(q); err != nil {
		t.Fatal(err)
	}
	if err := m.Define(`define rich as select y from y in person0 where y.salary > 100`); err != nil {
		t.Fatal(err)
	}
	_, tr, err := m.QueryTraced(q)
	if err != nil {
		t.Fatal(err)
	}
	if tr.CacheHit {
		t.Error("view definition must invalidate the prepared-statement cache")
	}
}

// TestPreparedStatementCacheBounded: the cache never grows past its bound;
// old entries are evicted, not leaked. These are the only plans a mediator
// retains — the optimizer keeps none — so an ad-hoc stream of never-
// repeating texts holds at most maxPreparedPlans of them for good.
func TestPreparedStatementCacheBounded(t *testing.T) {
	m := paperMediator(t)
	const adHoc = 2000
	for i := 0; i < adHoc; i++ {
		q := fmt.Sprintf(`select x.name from x in person0 where x.salary > %d`, i)
		if _, _, err := m.Prepare(q); err != nil {
			t.Fatal(err)
		}
	}
	m.prepMu.Lock()
	n := len(m.prepared)
	order := len(m.prepOrder)
	m.prepMu.Unlock()
	if n > maxPreparedPlans || order > maxPreparedPlans {
		t.Errorf("cache holds %d entries (%d in order), bound %d", n, order, maxPreparedPlans)
	}
	// The newest query is still cached.
	q := fmt.Sprintf(`select x.name from x in person0 where x.salary > %d`, adHoc-1)
	if _, tr, err := m.Prepare(q); err != nil || !tr.CacheHit {
		t.Errorf("newest entry evicted? err=%v", err)
	}
}

// TestExplainExplainsThePreparedPlan: Explain goes through the prepared
// cache, so the plan it marks chosen is the plan a query of the same text
// runs — also after the cost history has moved on from what the plan was
// chosen under — and explaining a text prepares it.
func TestExplainExplainsThePreparedPlan(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`
	plan, _, err := m.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	// Whatever this teaches the cost model, q stays pinned to its plan.
	for i := 0; i < 5; i++ {
		if _, err := m.Query(`select x from x in person`); err != nil {
			t.Fatal(err)
		}
	}
	report, err := m.Explain(q)
	if err != nil {
		t.Fatal(err)
	}
	chosen := ""
	for _, line := range strings.Split(report, "\n") {
		if strings.HasPrefix(line, "=>") {
			chosen = line
		}
	}
	if !strings.HasSuffix(chosen, " "+plan.String()) {
		t.Errorf("Explain chose\n%s\nbut the prepared plan is\n%s", chosen, plan)
	}
	const fresh = `select x.name from x in person where x.salary > 11`
	if _, err := m.Explain(fresh); err != nil {
		t.Fatal(err)
	}
	if _, tr, err := m.Prepare(fresh); err != nil || !tr.CacheHit {
		t.Errorf("Explain did not prepare its text: err=%v", err)
	}
}

// TestPreparedStoreStaleVersionDropped: a Prepare that started before a
// catalog change and finishes after it must not flush the entries built at
// the newer version — its result is simply dropped.
func TestPreparedStoreStaleVersionDropped(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`
	if _, _, err := m.Prepare(q); err != nil {
		t.Fatal(err)
	}
	v := m.Catalog().Version()
	// Simulate the straggler: a store compiled against a superseded catalog.
	m.preparedStore("straggler", v-1, preparedPlan{})
	if _, tr, err := m.Prepare(q); err != nil || !tr.CacheHit {
		t.Fatalf("stale store flushed the warm cache (err=%v)", err)
	}
	// And a stale lookup neither hits nor rewinds the cache.
	if _, ok := m.preparedLookup(q, v-1); ok {
		t.Fatal("lookup at a superseded version must miss")
	}
	if _, tr, err := m.Prepare(q); err != nil || !tr.CacheHit {
		t.Fatalf("stale lookup rewound the cache (err=%v)", err)
	}
}

// TestPreparedStatementCacheConcurrent: concurrent Prepare/ExecODL must be
// race-free and never serve a plan across a version change.
func TestPreparedStatementCacheConcurrent(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person0 where x.salary > 10`
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			view := fmt.Sprintf(`define v%d as select y from y in person0`, i)
			if err := m.Define(view); err != nil {
				t.Error(err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, _, err := m.Prepare(q); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(60 * time.Millisecond)
	close(stop)
	wg.Wait()
}

// TestPreparedPlanSharesCompiledPrograms: repeated executions of a prepared
// query must share one compiled-program cache (expressions lower once per
// prepared statement), and a catalog change must swap in a fresh one along
// with the fresh plan.
func TestPreparedPlanSharesCompiledPrograms(t *testing.T) {
	m := paperMediator(t)
	const q = `select x.name from x in person where x.salary > 10`
	e1, _, err := m.prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if e1.progs == nil {
		t.Fatal("prepared entry carries no program cache")
	}
	e2, tr, err := m.prepare(q)
	if err != nil || !tr.CacheHit {
		t.Fatalf("second prepare: err=%v hit=%v", err, tr != nil && tr.CacheHit)
	}
	if e2.progs != e1.progs {
		t.Error("prepared-statement hit must reuse the compiled programs")
	}
	// A query through the cached entry actually runs with those programs,
	// and repeated executions must not grow the cache — projections
	// synthesize their constructor expression per build, so a misplaced
	// cache key would add an entry per execution (a leak).
	if _, err := m.Query(q); err != nil {
		t.Fatal(err)
	}
	n1 := e1.progs.Len()
	if n1 == 0 {
		t.Fatal("execution compiled no programs into the prepared entry")
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	if n2 := e1.progs.Len(); n2 != n1 {
		t.Errorf("program cache grew across executions of one prepared plan: %d -> %d", n1, n2)
	}
	// Same property for a plan with an explicit struct projection: the
	// Project operator synthesizes its constructor expression per build,
	// so its program must be cached under the stable plan node.
	const pq = `select struct(nm: x.name, pay: x.salary) from x in person where x.salary > 10`
	pe, _, err := m.prepare(pq)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Query(pq); err != nil {
			t.Fatal(err)
		}
	}
	pn := pe.progs.Len()
	if _, err := m.Query(pq); err != nil {
		t.Fatal(err)
	}
	if pn2 := pe.progs.Len(); pn2 != pn {
		t.Errorf("projection program cache grew across executions: %d -> %d", pn, pn2)
	}
	// Catalog change: new plan, new program cache.
	if err := m.Define(`define fresh as select y from y in person0`); err != nil {
		t.Fatal(err)
	}
	e3, _, err := m.prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	if e3.progs == e1.progs {
		t.Error("catalog change must invalidate the compiled programs with the plan")
	}
}

// TestBreakerFlapKeepsPreparedPlans: fleet health steers routing, not
// plans, so a flapping copy leaves the prepared cache alone. A hot working
// set of 128 point texts over a 4-shard × 2-copy extent is prepared once;
// one replica's breaker then cycles closed → open → closed 100 times, and
// every re-prepare after every cycle must hit — texts pruned to the
// flapping copy's shard and texts pruned elsewhere alike.
func TestBreakerFlapKeepsPreparedPlans(t *testing.T) {
	m := New()
	var odl strings.Builder
	for shard := 0; shard < 4; shard++ {
		for _, suffix := range []string{"", "b"} {
			repo := fmt.Sprintf("r%d%s", shard, suffix)
			m.RegisterEngine(repo, shardStore(t, nil))
			fmt.Fprintf(&odl, "%s := Repository(address=%q);\n", repo, "mem:"+repo)
		}
	}
	odl.WriteString(`
		w0 := WrapperPostgres();
		interface Person (extent person) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent people of Person wrapper w0 at r0|r0b, r1|r1b, r2|r2b, r3|r3b
		    partition by hash(id);
	`)
	if err := m.ExecODL(odl.String()); err != nil {
		t.Fatal(err)
	}
	const texts, flaps = 128, 100
	hot := make([]string, texts)
	for i := range hot {
		hot[i] = fmt.Sprintf(`select x.name from x in people where x.id = %d`, i)
		if _, tr, err := m.Prepare(hot[i]); err != nil || tr.CacheHit {
			t.Fatalf("cold prepare of %q: err=%v hit=%v", hot[i], err, tr != nil && tr.CacheHit)
		}
	}
	hits := 0
	for flap := 0; flap < flaps; flap++ {
		for i := 0; i < DefaultBreakerThreshold; i++ {
			m.breakers.Failure("r3b")
		}
		if got := m.BreakerState("r3b"); got != BreakerOpen {
			t.Fatalf("flap %d: r3b breaker = %v, want open", flap, got)
		}
		m.breakers.Success("r3b")
		for _, q := range hot {
			_, tr, err := m.Prepare(q)
			if err != nil {
				t.Fatal(err)
			}
			if tr.CacheHit {
				hits++
			}
		}
	}
	if want := texts * flaps; hits != want {
		t.Errorf("prepared-cache hits = %d of %d re-prepares (share %.3f), want every one",
			hits, want, float64(hits)/float64(want))
	}
}
