package algebra

import (
	"math/rand"
	"testing"
	"testing/quick"

	"disco/internal/oql"
	"disco/internal/types"
)

// TestMapRoundTripProperty is the soundness invariant of the local
// transformation maps (disco.go's package doc): pushing a tuple through a
// random map into the source namespace and renaming it back is the
// identity.
func TestMapRoundTripProperty(t *testing.T) {
	letters := []string{"alpha", "beta", "gamma", "delta", "eps"}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		// Random mediator attributes with a random partial renaming.
		n := 1 + r.Intn(4)
		attrs := make([]string, 0, n)
		attrMap := map[string]string{}
		used := map[string]bool{}
		for i := 0; i < n; i++ {
			a := letters[r.Intn(len(letters))]
			if used[a] {
				continue
			}
			used[a] = true
			attrs = append(attrs, a)
			if r.Intn(2) == 0 {
				attrMap[a] = "src_" + a
			}
		}
		ref := ExtentRef{
			Extent: "e", Repo: "r0", Source: "s", Attrs: attrs, AttrMap: attrMap,
		}
		// A tuple in the SOURCE namespace (what the wrapper returns).
		fields := make([]types.Field, 0, len(attrs))
		for _, a := range attrs {
			fields = append(fields, types.Field{Name: ref.SourceAttr(a), Value: types.Int(r.Int63n(100))})
		}
		srcTuple := types.NewStruct(fields...)
		med := FromSource(ref, srcTuple)
		// Every mediator attribute is present with the source's value.
		for _, a := range attrs {
			got, ok := med.Get(a)
			if !ok {
				return false
			}
			want, _ := srcTuple.Get(ref.SourceAttr(a))
			if !got.Equal(want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestToSourceInvertsStripping: pushing a predicate down (stripVars) and
// translating it to the source namespace (ToSource) yields an expression
// whose execution against renamed source data matches evaluating the
// original predicate against mediator-renamed data.
func TestToSourceThenExecuteMatchesMediatorEvaluation(t *testing.T) {
	ref := ExtentRef{
		Extent: "prime", Repo: "r0", Source: "person0",
		Attrs:   []string{"n", "s"},
		AttrMap: map[string]string{"n": "name", "s": "salary"},
	}
	pred, err := oql.ParseQuery(`s > 10 and contains(n, "a")`)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Select{Pred: pred, Input: &Get{Ref: ref}}
	src, err := ToSource(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Source data in the source namespace.
	store := CollectionsMap{"person0": types.NewBag(
		types.NewStruct(types.Field{Name: "name", Value: types.Str("Mary")}, types.Field{Name: "salary", Value: types.Int(200)}),
		types.NewStruct(types.Field{Name: "name", Value: types.Str("Bob")}, types.Field{Name: "salary", Value: types.Int(5)}),
		types.NewStruct(types.Field{Name: "name", Value: types.Str("Zed")}, types.Field{Name: "salary", Value: types.Int(90)}),
	)}
	in := &Interp{Cols: store}
	v, err := in.Run(src)
	if err != nil {
		t.Fatal(err)
	}
	got := v.(*types.Bag)
	if got.Len() != 1 { // only Mary: salary > 10 and name contains "a"
		t.Errorf("rows = %d: %s", got.Len(), got)
	}
}

// --- ToOQL coverage for the non-pyramid paths --------------------------------

func TestToOQLRawSelectPath(t *testing.T) {
	// A raw (source-side) select outside any submit: the fresh-variable
	// rendering must still evaluate correctly.
	pred, err := oql.ParseQuery(`salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	rows := types.NewBag(
		types.NewStruct(types.Field{Name: "name", Value: types.Str("Mary")}, types.Field{Name: "salary", Value: types.Int(200)}),
		types.NewStruct(types.Field{Name: "name", Value: types.Str("Ann")}, types.Field{Name: "salary", Value: types.Int(3)}),
	)
	plan := &Select{Pred: pred, Input: &Project{
		Cols:  []Col{{Name: "name", Expr: &oql.Ident{Name: "name"}}, {Name: "salary", Expr: &oql.Ident{Name: "salary"}}},
		Input: &Const{Data: rows},
	}}
	back, err := ToOQL(plan)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oql.ParseQuery(back.String()); err != nil {
		t.Fatalf("reconstructed %q does not parse: %v", back, err)
	}
	got, err := oql.Eval(back, nil, oql.EmptyResolver)
	if err != nil {
		t.Fatal(err)
	}
	if got.(*types.Bag).Len() != 1 {
		t.Errorf("raw-path OQL = %q evaluated to %s", back, got)
	}
}

func TestToOQLNestPath(t *testing.T) {
	flat := types.NewBag(types.NewStruct(
		types.Field{Name: "a", Value: types.Int(1)},
		types.Field{Name: "b", Value: types.Int(2)},
	))
	plan := &Nest{
		Groups: []NestGroup{{Var: "x", Attrs: []string{"a"}}, {Var: "y", Attrs: []string{"b"}}},
		Input:  &Const{Data: flat},
	}
	back, err := ToOQL(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := oql.Eval(back, nil, oql.EmptyResolver)
	if err != nil {
		t.Fatalf("eval %q: %v", back, err)
	}
	in := &Interp{}
	want, err := in.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("nest OQL %q = %s, want %s", back, got, want)
	}
}

func TestToOQLDependPath(t *testing.T) {
	groups := types.NewBag(types.NewStruct(
		types.Field{Name: "label", Value: types.Str("g")},
		types.Field{Name: "members", Value: types.NewBag(types.Str("a"), types.Str("b"))},
	))
	dom, err := oql.ParseQuery(`g.members`)
	if err != nil {
		t.Fatal(err)
	}
	plan := &Depend{
		Var:    "m",
		Domain: dom,
		Input:  &Bind{Var: "g", Input: &Const{Data: groups}},
	}
	back, err := ToOQL(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := oql.Eval(back, nil, oql.EmptyResolver)
	if err != nil {
		t.Fatalf("eval %q: %v", back, err)
	}
	in := &Interp{}
	want, err := in.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("depend OQL %q = %s, want %s", back, got, want)
	}
}

func TestToOQLBareBind(t *testing.T) {
	plan := &Bind{Var: "x", Input: &Const{Data: types.NewBag(types.Int(1), types.Int(2))}}
	back, err := ToOQL(plan)
	if err != nil {
		t.Fatal(err)
	}
	got, err := oql.Eval(back, nil, oql.EmptyResolver)
	if err != nil {
		t.Fatalf("eval %q: %v", back, err)
	}
	in := &Interp{}
	want, err := in.Run(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want) {
		t.Errorf("bind OQL %q = %s, want %s", back, got, want)
	}
}
