package partial

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/physical"
	"disco/internal/types"
)

// --- fixture: the paper's two-source setup with switchable availability ----

func personRef(extent, repo string) algebra.ExtentRef {
	return algebra.ExtentRef{
		Extent: extent, Repo: repo, Source: extent, Iface: "Person",
		Attrs: []string{"id", "name", "salary"},
	}
}

type resolver struct{}

func (resolver) ResolvePlan(name string, star bool) (algebra.Node, error) {
	switch name {
	case "person0":
		return &algebra.Submit{Repo: "r0", Input: &algebra.Get{Ref: personRef("person0", "r0")}}, nil
	case "person1":
		return &algebra.Submit{Repo: "r1", Input: &algebra.Get{Ref: personRef("person1", "r1")}}, nil
	case "person":
		p0, _ := resolver{}.ResolvePlan("person0", false)
		p1, _ := resolver{}.ResolvePlan("person1", false)
		return &algebra.Union{Inputs: []algebra.Node{p0, p1}}, nil
	default:
		return nil, fmt.Errorf("unknown extent %q", name)
	}
}

type world struct {
	data map[string]algebra.CollectionsMap
	down map[string]bool
}

// paperWorld matches §1.2: r0 holds Mary (salary 200), r1 holds Sam (50).
func paperWorld() *world {
	mk := func(id int64, name string, sal int64) *types.Struct {
		return types.NewStruct(
			types.Field{Name: "id", Value: types.Int(id)},
			types.Field{Name: "name", Value: types.Str(name)},
			types.Field{Name: "salary", Value: types.Int(sal)},
		)
	}
	return &world{
		data: map[string]algebra.CollectionsMap{
			"r0": {"person0": types.NewBag(mk(1, "Mary", 200))},
			"r1": {"person1": types.NewBag(mk(2, "Sam", 50))},
		},
		down: map[string]bool{},
	}
}

func (w *world) runtime() *physical.Runtime {
	rt := &physical.Runtime{}
	rt.Submit = func(ctx context.Context, repo string, expr algebra.Node) (*types.Bag, error) {
		if w.down[repo] {
			<-ctx.Done()
			return nil, &physical.UnavailableError{Repo: repo, Err: ctx.Err()}
		}
		src, err := algebra.ToSource(expr)
		if err != nil {
			return nil, err
		}
		in := &algebra.Interp{Cols: w.data[repo]}
		v, err := in.Run(src)
		if err != nil {
			return nil, err
		}
		return v.(*types.Bag), nil
	}
	rt.Resolver = oql.ResolverFunc(func(name string, star bool) (types.Value, error) {
		plan, err := resolver{}.ResolvePlan(name, star)
		if err != nil {
			return nil, err
		}
		p, err := physical.Build(plan, rt)
		if err != nil {
			return nil, err
		}
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		defer cancel()
		return p.Run(ctx)
	})
	return rt
}

// evaluate compiles, normalizes and evaluates src against the world with a
// short deadline.
func evaluate(t *testing.T, w *world, src string) *Answer {
	t.Helper()
	e, err := oql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.Compile(e, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	plan = algebra.Normalize(plan)
	p, err := physical.Build(plan, w.runtime())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	ans, err := Evaluate(context.Background(), ctx, p)
	if err != nil {
		t.Fatalf("Evaluate(%q): %v", src, err)
	}
	return ans
}

const paperQuery = `select x.name from x in person where x.salary > 10`

// TestCompleteAnswer: with all sources up the answer is plain data.
func TestCompleteAnswer(t *testing.T) {
	w := paperWorld()
	ans := evaluate(t, w, paperQuery)
	if !ans.Complete {
		t.Fatalf("answer should be complete, got residual %s", ans.Residual)
	}
	want := types.NewBag(types.Str("Mary"), types.Str("Sam"))
	if !ans.Value.Equal(want) {
		t.Errorf("value = %s, want %s", ans.Value, want)
	}
}

// TestPaperPartialAnswer reproduces §1.3 exactly: with r0 down, the answer
// is union(select x.name from x in person0 where x.salary > 10, bag("Sam")).
func TestPaperPartialAnswer(t *testing.T) {
	w := paperWorld()
	w.down["r0"] = true
	ans := evaluate(t, w, paperQuery)
	if ans.Complete {
		t.Fatal("answer should be partial")
	}
	if len(ans.Unavailable) != 1 || ans.Unavailable[0] != "r0" {
		t.Errorf("unavailable = %v", ans.Unavailable)
	}
	got := ans.Residual.String()
	want := `union(select x.name from x in person0 where x.salary > 10, bag("Sam"))`
	if got != want {
		t.Errorf("residual:\n got  %s\n want %s", got, want)
	}
}

// TestResidualFoldsUnderTheCallersContext: a residual is built after the §4
// evaluation deadline has passed, so folding the answered shards must not
// run under it — here the deadline lapsed before evaluation even began, and
// Sam still folds to data. The caller's own cancellation does stop it.
func TestResidualFoldsUnderTheCallersContext(t *testing.T) {
	w := paperWorld()
	w.down["r0"] = true
	e, err := oql.ParseQuery(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.Compile(e, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := physical.Build(algebra.Normalize(plan), w.runtime())
	if err != nil {
		t.Fatal(err)
	}
	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	ans, err := Evaluate(context.Background(), expired, p)
	if err != nil {
		t.Fatal(err)
	}
	want := `union(select x.name from x in person0 where x.salary > 10, bag("Sam"))`
	if ans.Complete || ans.Residual.String() != want {
		t.Errorf("answer past the deadline:\n got  %s\n want %s", ans, want)
	}
	gone, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Residual(gone, p.Logical, p.Outcomes()); !errors.Is(err, context.Canceled) {
		t.Errorf("folding for a caller that walked away: err = %v, want context.Canceled", err)
	}
}

// TestResubmissionYieldsFullAnswer: §4's key property — once r0 recovers,
// evaluating the partial answer as a query returns the original answer.
func TestResubmissionYieldsFullAnswer(t *testing.T) {
	w := paperWorld()
	w.down["r0"] = true
	ans := evaluate(t, w, paperQuery)
	if ans.Complete {
		t.Fatal("expected partial answer")
	}
	// r0 comes back; resubmit the answer as a new query.
	w.down["r0"] = false
	resubmitted := evaluate(t, w, ans.Residual.String())
	if !resubmitted.Complete {
		t.Fatalf("resubmission should complete, got %s", resubmitted.Residual)
	}
	want := types.NewBag(types.Str("Mary"), types.Str("Sam"))
	if !resubmitted.Value.Equal(want) {
		t.Errorf("resubmitted = %s, want %s", resubmitted.Value, want)
	}
}

// TestPartialAnswerIsIdempotentWhileDown: resubmitting while r0 is still
// down returns an equivalent partial answer.
func TestPartialAnswerIsIdempotentWhileDown(t *testing.T) {
	w := paperWorld()
	w.down["r0"] = true
	first := evaluate(t, w, paperQuery)
	second := evaluate(t, w, first.Residual.String())
	if second.Complete {
		t.Fatal("should still be partial")
	}
	if first.Residual.String() != second.Residual.String() {
		t.Errorf("residuals differ:\n %s\n %s", first.Residual, second.Residual)
	}
}

func TestAllSourcesDown(t *testing.T) {
	w := paperWorld()
	w.down["r0"] = true
	w.down["r1"] = true
	ans := evaluate(t, w, paperQuery)
	if ans.Complete {
		t.Fatal("expected partial answer")
	}
	if len(ans.Unavailable) != 2 {
		t.Errorf("unavailable = %v", ans.Unavailable)
	}
	got := ans.Residual.String()
	// No data arrived: the residual is the (distributed) original query.
	want := `union(select x.name from x in person0 where x.salary > 10, select x.name from x in person1 where x.salary > 10)`
	if got != want {
		t.Errorf("residual:\n got  %s\n want %s", got, want)
	}
}

// TestPartialJoin: a join where one side is down keeps the arrived side as
// a data literal inside the residual query.
func TestPartialJoin(t *testing.T) {
	w := paperWorld()
	w.down["r0"] = true
	ans := evaluate(t, w, `select struct(a: x.name, b: y.name) from x in person0, y in person1 where x.id = y.id`)
	if ans.Complete {
		t.Fatal("expected partial answer")
	}
	got := ans.Residual.String()
	if !strings.Contains(got, "person0") {
		t.Errorf("residual should reference the unavailable extent: %s", got)
	}
	if !strings.Contains(got, `"Sam"`) {
		t.Errorf("residual should embed the arrived r1 data: %s", got)
	}
	// The residual parses and, once r0 is back, evaluates to the join's
	// true answer (empty here: ids 1 and 2 do not match).
	w.down["r0"] = false
	re := evaluate(t, w, got)
	if !re.Complete {
		t.Fatalf("resubmission incomplete: %s", re.Residual)
	}
	if re.Value.(*types.Bag).Len() != 0 {
		t.Errorf("join result = %s, want empty", re.Value)
	}
}

// TestPartialAggregate: aggregates over unavailable data stay symbolic.
func TestPartialAggregate(t *testing.T) {
	w := paperWorld()
	w.down["r1"] = true
	ans := evaluate(t, w, `sum(select x.salary from x in person)`)
	if ans.Complete {
		t.Fatal("expected partial answer")
	}
	got := ans.Residual.String()
	if !strings.HasPrefix(got, "sum(") {
		t.Errorf("residual should remain an aggregate: %s", got)
	}
	if !strings.Contains(got, "person1") {
		t.Errorf("residual should reference person1: %s", got)
	}
	// Resubmission computes the true sum.
	w.down["r1"] = false
	re := evaluate(t, w, got)
	if !re.Complete || !re.Value.Equal(types.Int(250)) {
		t.Errorf("resubmitted sum = %v (complete=%v), want 250", re.Value, re.Complete)
	}
}

// TestSourceDataChangeSemantics documents the §4 caveat: the resubmitted
// answer reflects already-fetched data for sources that were up, so if they
// changed meanwhile the combined answer mixes snapshots.
func TestSourceDataChangeSemantics(t *testing.T) {
	w := paperWorld()
	w.down["r0"] = true
	ans := evaluate(t, w, paperQuery)

	// Sam gets a raise to 5 (below the predicate threshold) while r0 is
	// down — but Sam's old value is already baked into the answer.
	w.data["r1"]["person1"] = types.NewBag(types.NewStruct(
		types.Field{Name: "id", Value: types.Int(2)},
		types.Field{Name: "name", Value: types.Str("Sam")},
		types.Field{Name: "salary", Value: types.Int(5)},
	))
	w.down["r0"] = false
	re := evaluate(t, w, ans.Residual.String())
	if !re.Complete {
		t.Fatal("expected complete answer")
	}
	// Mary from live r0, Sam from the stale embedded data.
	want := types.NewBag(types.Str("Mary"), types.Str("Sam"))
	if !re.Value.Equal(want) {
		t.Errorf("resubmitted = %s, want %s (stale Sam retained)", re.Value, want)
	}
}

func TestRealSourceErrorIsNotPartial(t *testing.T) {
	w := paperWorld()
	rt := w.runtime()
	// A submit that answers with a genuine error must fail the query.
	inner := rt.Submit
	rt.Submit = func(ctx context.Context, repo string, expr algebra.Node) (*types.Bag, error) {
		if repo == "r0" {
			return nil, errors.New("schema mismatch at source")
		}
		return inner(ctx, repo, expr)
	}
	e, err := oql.ParseQuery(paperQuery)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := algebra.Compile(e, resolver{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := physical.Build(algebra.Normalize(plan), rt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if _, err := Evaluate(context.Background(), ctx, p); err == nil {
		t.Error("genuine source errors must not produce partial answers")
	}
}

func TestResidualIsParseable(t *testing.T) {
	w := paperWorld()
	w.down["r0"] = true
	queries := []string{
		paperQuery,
		`select struct(n: x.name) from x in person`,
		`select distinct x.name from x in person`,
		`count(person)`,
		`union(select x.name from x in person0, bag("Zoe"))`,
	}
	for _, src := range queries {
		ans := evaluate(t, w, src)
		if ans.Complete {
			continue
		}
		if _, err := oql.ParseQuery(ans.Residual.String()); err != nil {
			t.Errorf("%q: residual does not parse: %q: %v", src, ans.Residual, err)
		}
	}
}

func TestAnswerString(t *testing.T) {
	complete := &Answer{Complete: true, Value: types.NewBag(types.Str("Mary"))}
	if complete.String() != `bag("Mary")` {
		t.Errorf("complete answer prints %q", complete.String())
	}
	partial := &Answer{Residual: &oql.Ident{Name: "person0"}}
	if partial.String() != "person0" {
		t.Errorf("partial answer prints %q", partial.String())
	}
}

func TestNeedsRemoteOnCorrelatedExpressions(t *testing.T) {
	pred, err := oql.ParseQuery(`x.salary > count(person1)`)
	if err != nil {
		t.Fatal(err)
	}
	bind := &algebra.Bind{Var: "x", Input: &algebra.Const{Data: types.NewBag()}}
	sel := &algebra.Select{Pred: pred, Input: bind}
	if !needsRemote(sel) {
		t.Error("a predicate referencing another extent must count as remote")
	}
	localPred, err := oql.ParseQuery(`x.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if needsRemote(&algebra.Select{Pred: localPred, Input: bind}) {
		t.Error("a pure predicate over bound vars is local")
	}
	// Projections with free names are remote too.
	projExpr, err := oql.ParseQuery(`struct(a: x.name, n: count(person0))`)
	if err != nil {
		t.Fatal(err)
	}
	proj := &algebra.Project{Cols: []algebra.Col{{Name: "out", Expr: projExpr}}, Input: bind}
	if !needsRemote(proj) {
		t.Error("correlated projection must count as remote")
	}
}
