package physical

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/types"
)

// --- fixture (mirrors the algebra tests' two-source person schema) ---------

func personRef(extent, repo string) algebra.ExtentRef {
	return algebra.ExtentRef{
		Extent: extent, Repo: repo, Source: extent, Iface: "Person",
		Attrs: []string{"id", "name", "salary"},
	}
}

type fixtureResolver struct{}

func (fixtureResolver) ResolvePlan(name string, star bool) (algebra.Node, error) {
	switch name {
	case "person0":
		return &algebra.Submit{Repo: "r0", Input: &algebra.Get{Ref: personRef("person0", "r0")}}, nil
	case "person1":
		return &algebra.Submit{Repo: "r1", Input: &algebra.Get{Ref: personRef("person1", "r1")}}, nil
	case "person":
		return &algebra.Union{Inputs: []algebra.Node{
			&algebra.Submit{Repo: "r0", Input: &algebra.Get{Ref: personRef("person0", "r0")}},
			&algebra.Submit{Repo: "r1", Input: &algebra.Get{Ref: personRef("person1", "r1")}},
		}}, nil
	default:
		return nil, fmt.Errorf("unknown extent %q", name)
	}
}

func person(id int64, name string, salary int64) *types.Struct {
	return types.NewStruct(
		types.Field{Name: "id", Value: types.Int(id)},
		types.Field{Name: "name", Value: types.Str(name)},
		types.Field{Name: "salary", Value: types.Int(salary)},
	)
}

func bonus(pid, amount int64) *types.Struct {
	return types.NewStruct(
		types.Field{Name: "pid", Value: types.Int(pid)},
		types.Field{Name: "amount", Value: types.Int(amount)},
	)
}

func stores() map[string]algebra.CollectionsMap {
	return map[string]algebra.CollectionsMap{
		"r0": {
			"person0": types.NewBag(person(1, "Mary", 200), person(3, "Ann", 5)),
			// Only source-side (SQL-shaped) plans read bonus0.
			"bonus0": types.NewBag(bonus(1, 10), bonus(1, 20), bonus(3, 10), bonus(9, 1)),
		},
		"r1": {"person1": types.NewBag(person(2, "Sam", 50), person(1, "Mary", 55))},
	}
}

// fixtureRuntime builds a Runtime whose submits run against in-memory
// stores, with optional per-repo latency and unavailability.
type fixtureRuntime struct {
	data    map[string]algebra.CollectionsMap
	latency map[string]time.Duration
	down    map[string]bool
}

func (f *fixtureRuntime) runtime() *Runtime {
	rt := &Runtime{}
	rt.Submit = func(ctx context.Context, repo string, expr algebra.Node) (*types.Bag, error) {
		if f.down[repo] {
			// A down source blocks until the deadline, like a hung server.
			<-ctx.Done()
			return nil, &UnavailableError{Repo: repo, Err: ctx.Err()}
		}
		if d := f.latency[repo]; d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, &UnavailableError{Repo: repo, Err: ctx.Err()}
			}
		}
		cols, ok := f.data[repo]
		if !ok {
			return nil, fmt.Errorf("unknown repo %q", repo)
		}
		// The source side of the wire: the pushed-down fragment, in the
		// source namespace, on the engine production sources run.
		src, err := algebra.ToSource(expr)
		if err != nil {
			return nil, err
		}
		v, err := RunLocal(ctx, src, cols)
		if err != nil {
			return nil, err
		}
		return v.(*types.Bag), nil
	}
	rt.Resolver = oql.ResolverFunc(func(name string, star bool) (types.Value, error) {
		plan, err := fixtureResolver{}.ResolvePlan(name, star)
		if err != nil {
			return nil, err
		}
		p, err := Build(plan, rt)
		if err != nil {
			return nil, err
		}
		return p.Run(context.Background())
	})
	return rt
}

func compile(t *testing.T, src string) algebra.Node {
	t.Helper()
	e, err := oql.ParseQuery(src)
	if err != nil {
		t.Fatal(err)
	}
	n, err := algebra.Compile(e, fixtureResolver{})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestPlansAgreeWithInterp: the physical runtime must agree with the
// logical interpreter on the shared query corpus, for raw and fully
// rewritten plans — on both sides of the wire. The physical side runs its
// pushed-down fragments through RunLocal (the fixture's Submit), the
// specification side through a second Interp over the same stores, so the
// two share no executor.
func TestPlansAgreeWithInterp(t *testing.T) {
	queries := []string{
		`select x.name from x in person where x.salary > 10`,
		`select struct(name: x.name, salary: x.salary) from x in person0`,
		`select struct(a: x.name, b: y.name) from x in person0, y in person1 where x.id = y.id`,
		`select struct(a: x.name, b: y.name) from x in person0, y in person1 where x.id = y.id and x.salary > y.salary`,
		`select distinct x.name from x in person`,
		`count(person)`,
		`sum(select x.salary from x in person)`,
		`union(select x.name from x in person0, bag("Zoe"))`,
		`select x.salary * 2 from x in person1`,
		`flatten(bag(bag(1), bag(2)))`,
		`select struct(n: x.name, c: count(select z from z in person1 where z.id = x.id)) from x in person0`,
	}
	f := &fixtureRuntime{data: stores()}
	rt := f.runtime()
	spec := &algebra.Interp{Resolver: rt.Resolver}
	spec.Submitter = func(repo string, expr algebra.Node) (types.Value, error) {
		src, err := algebra.ToSource(expr)
		if err != nil {
			return nil, err
		}
		return (&algebra.Interp{Cols: f.data[repo]}).Run(src)
	}
	for _, src := range queries {
		for _, rewrite := range []bool{false, true} {
			plan := compile(t, src)
			if rewrite {
				plan = algebra.Push(algebra.Normalize(plan), algebra.AcceptAll{}, algebra.PushOptions{Select: true, Project: true, Join: true})
			}
			p, err := Build(plan, rt)
			if err != nil {
				t.Fatalf("build %q: %v", src, err)
			}
			got, err := p.Run(context.Background())
			if err != nil {
				t.Errorf("run %q (rewrite=%v): %v", src, rewrite, err)
				continue
			}
			want, err := spec.Run(plan)
			if err != nil {
				t.Fatalf("interp %q: %v", src, err)
			}
			if !got.Equal(want) {
				t.Errorf("%q (rewrite=%v):\n physical %s\n interp   %s\n plan %s", src, rewrite, got, want, plan)
			}
		}
	}

	// SQL-shaped plans, as source.ParseSQL builds them: get leaves over raw
	// rows, bare column names, no variable structure. Both engines must
	// agree on the value, or both must refuse.
	table := func(name string) algebra.Node {
		return &algebra.Get{Ref: algebra.ExtentRef{Extent: name, Source: name}}
	}
	cols := func(names ...string) []algebra.Col {
		out := make([]algebra.Col, len(names))
		for i, n := range names {
			out[i] = algebra.Col{Name: n, Expr: &oql.Ident{Name: n}}
		}
		return out
	}
	cond := func(src string) oql.Expr {
		e, err := oql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	rawJoin := &algebra.Join{L: table("person0"), R: table("bonus0"), Pred: cond(`id = pid and amount >= 10`)}
	sourcePlans := []struct {
		name string
		plan algebra.Node
		rows int // -1: both engines must refuse
	}{
		{"join over raw rows", &algebra.Project{Cols: cols("name", "amount"), Input: rawJoin}, 3},
		{"cross join", &algebra.Join{L: table("person0"), R: table("bonus0")}, 8},
		{"distinct", &algebra.Distinct{Input: &algebra.Project{Cols: cols("pid"), Input: table("bonus0")}}, 3},
		{"subquery in from", &algebra.Project{Cols: cols("name"), Input: &algebra.Select{Pred: cond(`salary > 10`),
			Input: &algebra.Project{Cols: cols("name", "salary"), Input: table("person0")}}}, 1},
		{"empty result", &algebra.Select{Pred: cond(`salary > 100000`), Input: table("person0")}, 0},
		{"unknown table", &algebra.Project{Cols: cols("name"), Input: table("nosuch")}, -1},
		{"unknown column", &algebra.Select{Pred: cond(`nosuch > 1`), Input: table("person0")}, -1},
		{"unknown projected column", &algebra.Project{Cols: cols("nosuch"), Input: table("person0")}, -1},
		{"submit below the wire", &algebra.Submit{Repo: "r1", Input: table("person1")}, -1},
	}
	for _, c := range sourcePlans {
		got, gotErr := RunLocal(context.Background(), c.plan, f.data["r0"])
		want, wantErr := (&algebra.Interp{Cols: f.data["r0"]}).Run(c.plan)
		switch {
		case (gotErr == nil) != (c.rows >= 0) || (wantErr == nil) != (c.rows >= 0):
			t.Errorf("%s: physical err = %v, interp err = %v", c.name, gotErr, wantErr)
		case gotErr == nil && (!got.Equal(want) || got.(*types.Bag).Len() != c.rows):
			t.Errorf("%s: want %d rows\n physical %s\n interp   %s", c.name, c.rows, got, want)
		}
	}
	// Raw rows bind no variables (EnvVars is empty), so the equi-predicate
	// cannot be split by side: the implementation rule must stay nested-loop.
	p, err := Build(rawJoin, &Runtime{Collections: f.data["r0"]})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := p.Root.(*NLJoin); !ok {
		t.Errorf("join over raw rows built %T, want *NLJoin", p.Root)
	}
}

func TestHashJoinChosenForEquiJoin(t *testing.T) {
	f := &fixtureRuntime{data: stores()}
	rt := f.runtime()
	plan := compile(t, `select struct(a: x.name, b: y.name) from x in person0, y in person1 where x.id = y.id`)
	plan = algebra.Normalize(plan)
	p, err := Build(plan, rt)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	var visit func(op Operator)
	visit = func(op Operator) {
		switch x := op.(type) {
		case *HashJoin:
			found = true
		case *NLJoin:
			visit(x.L)
			visit(x.R)
		case *MkProj:
			visit(x.Input)
		case *MkSelect:
			visit(x.Input)
		case *MkMap:
			visit(x.Input)
		case *MkBind:
			visit(x.Input)
		}
	}
	visit(p.Root)
	if !found {
		t.Errorf("equi-join should implement as hash join")
	}
}

func TestNLJoinForNonEquiPredicates(t *testing.T) {
	f := &fixtureRuntime{data: stores()}
	rt := f.runtime()
	plan := algebra.Normalize(compile(t, `select struct(a: x.name, b: y.name) from x in person0, y in person1 where x.salary > y.salary`))
	p, err := Build(plan, rt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// Mary(200) and Ann(5) vs Sam(50) and Mary(55): pairs where left > right.
	if got.(*types.Bag).Len() != 2 {
		t.Errorf("rows = %d, want 2: %s", got.(*types.Bag).Len(), got)
	}
}

// TestExecsRunInParallel is the §4 property: exec calls proceed in
// parallel, so two sources with 100ms latency answer in ~100ms, not 200.
func TestExecsRunInParallel(t *testing.T) {
	f := &fixtureRuntime{
		data:    stores(),
		latency: map[string]time.Duration{"r0": 100 * time.Millisecond, "r1": 100 * time.Millisecond},
	}
	rt := f.runtime()
	plan := compile(t, `select x.name from x in person where x.salary > 10`)
	p, err := Build(plan, rt)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := p.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if elapsed > 180*time.Millisecond {
		t.Errorf("two 100ms sources took %v; exec calls must run in parallel", elapsed)
	}
}

func TestUnavailableSourceSurfacesAndOutcomesComplete(t *testing.T) {
	f := &fixtureRuntime{data: stores(), down: map[string]bool{"r0": true}}
	rt := f.runtime()
	plan := compile(t, `select x.name from x in person where x.salary > 10`)
	p, err := Build(plan, rt)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	_, err = p.Run(ctx)
	var ue *UnavailableError
	if !errors.As(err, &ue) {
		t.Fatalf("err = %v, want UnavailableError", err)
	}
	if ue.Repo != "r0" {
		t.Errorf("unavailable repo = %s", ue.Repo)
	}
	// All outcomes are known afterwards: r0 failed, r1 delivered data.
	outcomes := p.Outcomes()
	if len(outcomes) != 2 {
		t.Fatalf("outcomes = %d", len(outcomes))
	}
	for sub, o := range outcomes {
		switch sub.Repo {
		case "r0":
			if o.Err == nil {
				t.Error("r0 should have failed")
			}
		case "r1":
			if o.Err != nil || o.Bag.Len() != 2 {
				t.Errorf("r1 outcome = %+v", o)
			}
		}
	}
}

func TestScalarPlan(t *testing.T) {
	f := &fixtureRuntime{data: stores()}
	rt := f.runtime()
	p, err := Build(compile(t, `count(person)`), rt)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Scalar {
		t.Error("count plan should be scalar")
	}
	got, err := p.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(types.Int(4)) {
		t.Errorf("count = %s", got)
	}
}

func TestBareGetIsABuildError(t *testing.T) {
	f := &fixtureRuntime{data: stores()}
	rt := f.runtime()
	bad := &algebra.Get{Ref: personRef("person0", "r0")}
	if _, err := Build(bad, rt); err == nil {
		t.Error("bare get outside submit should fail to build")
	}
}

func TestRemoteErrorIsNotUnavailable(t *testing.T) {
	// A source that answers with an error (bad query, type mismatch) is a
	// query failure, not an unavailability.
	rt := &Runtime{Submit: func(context.Context, string, algebra.Node) (*types.Bag, error) {
		return nil, fmt.Errorf("type mismatch at source")
	}}
	plan := compile(t, `select x.name from x in person0`)
	p, err := Build(plan, rt)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(context.Background())
	if err == nil {
		t.Fatal("expected error")
	}
	var ue *UnavailableError
	if errors.As(err, &ue) {
		t.Error("remote errors must not classify as unavailable")
	}
}

func TestEquiKeyExtraction(t *testing.T) {
	l := map[string]bool{"x": true}
	r := map[string]bool{"y": true}
	pred := func(src string) oql.Expr {
		e, err := oql.ParseQuery(src)
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	lk, rk, res, ok := equiKey(pred(`x.id = y.id`), l, r)
	if !ok || lk.String() != "x.id" || rk.String() != "y.id" || res != nil {
		t.Errorf("simple equi: %v %v %v %v", lk, rk, res, ok)
	}
	// Mirrored orientation.
	lk, rk, _, ok = equiKey(pred(`y.id = x.id`), l, r)
	if !ok || lk.String() != "x.id" || rk.String() != "y.id" {
		t.Errorf("mirrored equi: %v %v", lk, rk)
	}
	// Conjunction keeps the non-equi part as residual.
	_, _, res, ok = equiKey(pred(`x.id = y.id and x.a > y.b`), l, r)
	if !ok || res == nil {
		t.Errorf("residual missing: %v %v", res, ok)
	}
	// No usable equality.
	if _, _, _, ok := equiKey(pred(`x.a > y.b`), l, r); ok {
		t.Error("range predicate should not produce a hash key")
	}
	if _, _, _, ok := equiKey(pred(`x.a = x.b`), l, r); ok {
		t.Error("single-side equality should not produce a hash key")
	}
}

func TestOperatorsRewindOnReopen(t *testing.T) {
	c := &ConstScan{Bag: types.NewBag(types.Int(1), types.Int(2))}
	for round := 0; round < 2; round++ {
		got, err := Drain(context.Background(), c)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 2 {
			t.Fatalf("round %d: %d elements", round, len(got))
		}
	}
}
