package harness

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/types"
)

// paperQuery is the §1.2 query used throughout the experiments.
const paperQuery = `select x.name from x in person where x.salary > 10`

func ms(d time.Duration) string {
	return fmt.Sprintf("%.2f", float64(d)/float64(time.Millisecond))
}

// F1Architecture runs Figure 1 as a living system: an application queries a
// mediator which reaches two wrapped TCP sources, and the table reports
// what each component did.
func F1Architecture() (*Table, error) {
	f, err := NewPersonFleet(FleetConfig{Sources: 2, RowsPerSource: 100, TCP: true})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	v, tr, err := f.M.QueryTraced(paperQuery)
	if err != nil {
		return nil, err
	}
	rows := v.(*types.Bag).Len()

	t := &Table{
		ID:     "F1",
		Title:  "Figure 1 — distributed architecture (A -> M -> W -> D over TCP)",
		Header: []string{"component", "role", "queries", "bytes_out", "detail"},
	}
	t.Rows = append(t.Rows, []string{"application", "issues OQL", "1", "-", paperQuery})
	t.Rows = append(t.Rows, []string{"mediator", "plan+execute", "1", "-",
		fmt.Sprintf("parse=%sms optimize=%sms execute=%sms", ms(tr.Parse), ms(tr.Optimize), ms(tr.Execute))})
	for i, srv := range f.Servers {
		st := srv.Stats()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("wrapper+source r%d", i), "SQL translation + scan",
			fmt.Sprintf("%d", st.Queries.Load()),
			fmt.Sprintf("%d", st.BytesOut.Load()),
			fmt.Sprintf("person%d", i),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("answer rows: %d (from %d per-source rows)", rows, f.RowsPerSource))
	return t, nil
}

// F2Pipeline times the Mediator Prototype 0 stages (Figure 2) cold and
// warm (plan cache hit).
func F2Pipeline() (*Table, error) {
	f, err := NewPersonFleet(FleetConfig{Sources: 2, RowsPerSource: 200})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	_, cold, err := f.M.QueryTraced(paperQuery)
	if err != nil {
		return nil, err
	}
	_, warm, err := f.M.QueryTraced(paperQuery)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:     "F2",
		Title:  "Figure 2 — Prototype 0 pipeline stage timings (ms)",
		Header: []string{"stage", "cold", "warm(plan cache)"},
		Rows: [][]string{
			{"oql parse", ms(cold.Parse), ms(warm.Parse)},
			{"view expansion", ms(cold.Expand), ms(warm.Expand)},
			{"compile to algebra", ms(cold.Compile), ms(warm.Compile)},
			{"optimize", ms(cold.Optimize), ms(warm.Optimize)},
			{"execute", ms(cold.Execute), ms(warm.Execute)},
		},
	}
	t.Notes = append(t.Notes, fmt.Sprintf("warm run cache hit: %v", warm.CacheHit))
	return t, nil
}

// E1Availability measures the paper's §1 scaling claim: the probability
// that a query over n sources can be answered completely collapses as n
// grows, while partial-evaluation answers remain useful (they always
// return, carrying the available fraction of the data).
func E1Availability(ns []int, p float64, trials int, timeout time.Duration) (*Table, error) {
	if timeout <= 0 {
		timeout = 150 * time.Millisecond
	}
	r := rand.New(rand.NewSource(1996))
	t := &Table{
		ID:    "E1",
		Title: fmt.Sprintf("availability vs number of sources (per-source availability p=%.2f, %d trials)", p, trials),
		Header: []string{
			"sources", "analytic p^n", "full answers", "partial answers", "avg data fraction",
		},
	}
	for _, n := range ns {
		f, err := NewPersonFleet(FleetConfig{Sources: n, RowsPerSource: 5, TCP: true, Timeout: timeout})
		if err != nil {
			return nil, err
		}
		full, partialCount := 0, 0
		dataFrac := 0.0
		for trial := 0; trial < trials; trial++ {
			for i := 0; i < n; i++ {
				f.SetAvailable(i, r.Float64() < p)
			}
			ans, err := f.M.QueryPartial(`select x.name from x in person`)
			if err != nil {
				f.Close()
				return nil, err
			}
			// The fraction is read off the answer itself, so a partial
			// answer that lost an answered source's rows shows here.
			rows := 0
			if ans.Complete {
				full++
				rows = ans.Value.(*types.Bag).Len()
			} else {
				partialCount++
				rows = residualRows(ans.Residual)
			}
			dataFrac += float64(rows) / float64(f.RowsPerSource*n)
		}
		f.Close()
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", math.Pow(p, float64(n))),
			fmt.Sprintf("%d/%d", full, trials),
			fmt.Sprintf("%d/%d", partialCount, trials),
			fmt.Sprintf("%.2f", dataFrac/float64(trials)),
		})
	}
	t.Notes = append(t.Notes,
		"full answers track p^n; partial semantics always answers, returning the available fraction")
	return t, nil
}

// residualRows counts the data a partial answer carries: the elements of
// the bag constants folded into its residual, which for E1's query has the
// form union(select ... from x in person_i, ..., bag(...)).
func residualRows(e oql.Expr) int {
	switch x := e.(type) {
	case *oql.Literal:
		if b, ok := x.Val.(*types.Bag); ok {
			return b.Len()
		}
	case *oql.Call:
		n := 0
		for _, a := range x.Args {
			n += residualRows(a)
		}
		return n
	}
	return 0
}

// E2Partial reproduces §1.3/§4 end to end and times each phase.
func E2Partial() (*Table, error) {
	f, err := NewPersonFleet(FleetConfig{Sources: 2, RowsPerSource: 50, TCP: true, Timeout: 250 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	t := &Table{
		ID:     "E2",
		Title:  "partial evaluation: unavailable source, answer-as-query, resubmission",
		Header: []string{"phase", "latency_ms", "outcome"},
	}

	start := time.Now()
	ans, err := f.M.QueryPartial(paperQuery)
	if err != nil {
		return nil, err
	}
	t.Rows = append(t.Rows, []string{"all sources up", ms(time.Since(start)),
		fmt.Sprintf("complete, %d rows", ans.Value.(*types.Bag).Len())})

	f.SetAvailable(0, false)
	start = time.Now()
	ans, err = f.M.QueryPartial(paperQuery)
	if err != nil {
		return nil, err
	}
	if ans.Complete {
		return nil, fmt.Errorf("harness: expected a partial answer")
	}
	residual := ans.Residual.String()
	t.Rows = append(t.Rows, []string{"r0 down", ms(time.Since(start)),
		fmt.Sprintf("partial: %.60s...", residual)})

	f.SetAvailable(0, true)
	start = time.Now()
	re, err := f.M.QueryPartial(residual)
	if err != nil {
		return nil, err
	}
	if !re.Complete {
		return nil, fmt.Errorf("harness: resubmission should complete")
	}
	full, err := f.M.Query(paperQuery)
	if err != nil {
		return nil, err
	}
	match := re.Value.Equal(full)
	t.Rows = append(t.Rows, []string{"resubmit after recovery", ms(time.Since(start)),
		fmt.Sprintf("complete, equals original answer: %v", match)})
	if !match {
		return nil, fmt.Errorf("harness: resubmitted answer does not match")
	}
	t.Notes = append(t.Notes, "the partial-phase latency is dominated by the evaluation deadline (the paper's designated time)")
	return t, nil
}

// E3Pushdown sweeps wrapper capability sets and measures data movement for
// the same query (§3.2: the wrapper grammar governs what the optimizer may
// push).
func E3Pushdown(rows int) (*Table, error) {
	if rows <= 0 {
		rows = 2000
	}
	const query = `select x.name from x in person0 where x.salary < 100`
	levels := []struct {
		label string
		odl   string
	}{
		{"get only", `w0 := Wrapper("sql", ops="get");`},
		{"get+select", `w0 := Wrapper("sql", ops="get,select");`},
		{"get+select+project", `w0 := Wrapper("sql", ops="get,select,project");`},
	}
	t := &Table{
		ID:     "E3",
		Title:  fmt.Sprintf("capability-driven pushdown (%d-row source, selectivity ~0.1)", rows),
		Header: []string{"wrapper capability", "bytes from source", "source queries", "latency_ms", "answer rows"},
	}
	var baseline int64
	for _, level := range levels {
		f, err := NewPersonFleet(FleetConfig{Sources: 1, RowsPerSource: rows, TCP: true, WrapperODL: level.odl})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		v, err := f.M.Query(query)
		if err != nil {
			f.Close()
			return nil, err
		}
		elapsed := time.Since(start)
		bytes := f.TotalBytesOut()
		queries := f.TotalQueries()
		f.Close()
		if baseline == 0 {
			baseline = bytes
		}
		t.Rows = append(t.Rows, []string{
			level.label,
			fmt.Sprintf("%d (%.0f%%)", bytes, 100*float64(bytes)/float64(baseline)),
			fmt.Sprintf("%d", queries),
			ms(elapsed),
			fmt.Sprintf("%d", v.(*types.Bag).Len()),
		})
	}
	t.Notes = append(t.Notes, "richer wrapper grammars cut data movement; answers are identical across rows")
	return t, nil
}

// E4CostLearning measures §3.3: estimate error against observed exec calls
// as the history accumulates, plus the default-cost pushdown behaviour.
func E4CostLearning() (*Table, error) {
	f, err := NewPersonFleet(FleetConfig{
		Sources: 1, RowsPerSource: 500, TCP: true,
		Latency: 15 * time.Millisecond, Timeout: 5 * time.Second,
	})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	const query = `select x.name from x in person0 where x.salary < 500`
	plan, _, err := f.M.Prepare(query)
	if err != nil {
		return nil, err
	}
	subs := algebra.Submits(plan)
	if len(subs) != 1 {
		return nil, fmt.Errorf("harness: expected 1 submit, got %d", len(subs))
	}
	sub := subs[0]

	t := &Table{
		ID:     "E4",
		Title:  "learned exec costs: estimate vs observation (15ms injected source latency)",
		Header: []string{"observed calls", "basis", "est time_ms", "est rows", "actual time_ms", "actual rows"},
	}
	var lastElapsed time.Duration
	var lastRows int
	for k := 0; k <= 8; k++ {
		est := f.M.History().Estimate(sub.Repo, sub.Input)
		actualTime, actualRows := "-", "-"
		if k > 0 {
			actualTime = ms(lastElapsed)
			actualRows = fmt.Sprintf("%d", lastRows)
		}
		if k == 0 || k == 1 || k == 2 || k == 4 || k == 8 {
			t.Rows = append(t.Rows, []string{
				fmt.Sprintf("%d", k), est.Basis.String(),
				ms(est.Time), fmt.Sprintf("%.1f", est.Rows),
				actualTime, actualRows,
			})
		}
		if k == 8 {
			break
		}
		start := time.Now()
		v, err := f.M.Query(query)
		if err != nil {
			return nil, err
		}
		lastElapsed = time.Since(start)
		lastRows = v.(*types.Bag).Len()
	}
	// Default-cost pushdown check on a fresh mediator.
	explain, err := f.M.Explain(query)
	if err != nil {
		return nil, err
	}
	pushed := strings.Contains(explain, "submit(r0, project([name], select(")
	t.Notes = append(t.Notes, fmt.Sprintf("default estimate is (time 0, rows 1); optimizer pushes maximally under it: %v", pushed))
	return t, nil
}

// E7WideArea measures how injected link latency amplifies the value of
// pushdown — the performance concern §6.2 raises for the distributed
// architecture ("network communication occurs between several components
// to process a single query").
func E7WideArea(rows int, latencies []time.Duration) (*Table, error) {
	if rows <= 0 {
		rows = 1500
	}
	if len(latencies) == 0 {
		latencies = []time.Duration{0, 10 * time.Millisecond, 40 * time.Millisecond}
	}
	const query = `select x.name from x in person0 where x.salary < 100`
	t := &Table{
		ID:     "E7",
		Title:  fmt.Sprintf("pushdown vs link latency (%d-row source)", rows),
		Header: []string{"link latency", "scan-only_ms", "full pushdown_ms", "speedup"},
	}
	for _, lat := range latencies {
		var results [2]time.Duration
		for i, wrapperODL := range []string{
			`w0 := Wrapper("sql", ops="get");`,
			`w0 := WrapperPostgres();`,
		} {
			f, err := NewPersonFleet(FleetConfig{
				Sources: 1, RowsPerSource: rows, TCP: true,
				Latency: lat, Timeout: 30 * time.Second, WrapperODL: wrapperODL,
			})
			if err != nil {
				return nil, err
			}
			// Warm the plan cache so only execution is measured.
			if _, err := f.M.Query(query); err != nil {
				f.Close()
				return nil, err
			}
			start := time.Now()
			if _, err := f.M.Query(query); err != nil {
				f.Close()
				return nil, err
			}
			results[i] = time.Since(start)
			f.Close()
		}
		t.Rows = append(t.Rows, []string{
			lat.String(),
			ms(results[0]),
			ms(results[1]),
			fmt.Sprintf("%.1fx", float64(results[0])/float64(results[1])),
		})
	}
	t.Notes = append(t.Notes,
		"both plans pay one round trip, so the absolute gap (data volume) stays constant while the ratio shrinks as link latency dominates")
	return t, nil
}

// E5Scaling measures the DBA-facing cost of adding sources (§1.2): one
// extent declaration each, with the query text unchanged.
func E5Scaling(ns []int) (*Table, error) {
	t := &Table{
		ID:     "E5",
		Title:  "scaling the number of same-type sources (in-process, 50 rows each)",
		Header: []string{"sources", "add-extent_ms", "query_ms", "answer rows", "plan submits"},
	}
	for _, n := range ns {
		f, err := NewPersonFleet(FleetConfig{Sources: n, RowsPerSource: 50})
		if err != nil {
			return nil, err
		}
		// Time an incremental registration: one more source.
		extra := fmt.Sprintf(`
			rextra := Repository(address="mem:r0");
			extent personextra of Person wrapper w0 repository rextra
			    map ((person0=personextra));
		`)
		start := time.Now()
		if err := f.M.ExecODL(extra); err != nil {
			f.Close()
			return nil, err
		}
		addTime := time.Since(start)
		if err := f.M.ExecODL(`drop extent personextra;`); err != nil {
			f.Close()
			return nil, err
		}

		start = time.Now()
		v, err := f.M.Query(paperQuery)
		if err != nil {
			f.Close()
			return nil, err
		}
		queryTime := time.Since(start)

		plan, _, err := f.M.Prepare(paperQuery)
		if err != nil {
			f.Close()
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%d", n),
			ms(addTime),
			ms(queryTime),
			fmt.Sprintf("%d", v.(*types.Bag).Len()),
			fmt.Sprintf("%d", len(algebra.Submits(plan))),
		})
		f.Close()
	}
	t.Notes = append(t.Notes, "the query text never changes; each source adds one extent declaration and one submit to the plan")
	return t, nil
}

// E6Modeling measures the §2.2–2.3 modeling tools: maps, subtyping and
// views over the same underlying data.
func E6Modeling() (*Table, error) {
	f, err := NewPersonFleet(FleetConfig{Sources: 2, RowsPerSource: 200})
	if err != nil {
		return nil, err
	}
	defer f.Close()

	if err := f.M.ExecODL(`
		interface PersonPrime {
		    attribute String n;
		    attribute Short s;
		}
		extent personprime0 of PersonPrime wrapper w0 repository r0
		    map ((person0=personprime0),(name=n),(salary=s));

		interface Student:Person { }
		extent student0 of Student wrapper w0 repository r1
		    map ((person1=student0));

		define wealthy as
		    select struct(name: x.name, salary: x.salary)
		    from x in person where x.salary > 500;

		define wealthycount as count(wealthy);
	`); err != nil {
		return nil, err
	}

	cases := []struct {
		label string
		query string
	}{
		{"direct extent", `select x.name from x in person0 where x.salary > 500`},
		{"mapped type (§2.2.2)", `select x.n from x in personprime0 where x.s > 500`},
		{"subtype closure (§2.2.1)", `select x.name from x in person* where x.salary > 500`},
		{"view (§2.2.3)", `select w.name from w in wealthy`},
		{"view over view", `wealthycount`},
	}
	t := &Table{
		ID:     "E6",
		Title:  "modeling tools: direct access vs maps, subtyping and views",
		Header: []string{"mechanism", "latency_ms", "result size"},
	}
	for _, c := range cases {
		start := time.Now()
		v, err := f.M.Query(c.query)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", c.label, err)
		}
		elapsed := time.Since(start)
		size := "1 (scalar)"
		if b, ok := v.(*types.Bag); ok {
			size = fmt.Sprintf("%d rows", b.Len())
		}
		t.Rows = append(t.Rows, []string{c.label, ms(elapsed), size})
	}
	t.Notes = append(t.Notes, "maps and views add only mediator-side rewriting; pushdown still applies underneath")
	return t, nil
}
