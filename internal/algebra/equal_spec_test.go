package algebra

import (
	"math/rand"
	"testing"

	"disco/internal/oql"
	"disco/internal/types"
)

// specEqual is the definition of plan identity: two plans are the same
// plan when their canonical renderings are equal. Equal computes the same
// relation without rendering; FuzzPlanEqual holds it to this one.
func specEqual(a, b Node) bool { return a.String() == b.String() }

// FuzzPlanEqual checks Equal against specEqual over generated plan pairs:
// a plan and a copy of it with one field of one node changed (the change
// may or may not show in the rendering), a plan and a fresh deep copy, and
// two independently generated plans. The generator draws names from tiny
// pools so that unrelated plans often coincide, and it builds the
// renderings that coincide across different structures: a nil join
// predicate and a literal true, an aggregate named like the Distinct or
// Flatten operator, unrendered ExtentRef fields, and equal constant data
// behind different bags.
func FuzzPlanEqual(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		seed := make([]byte, 48)
		rng.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &planGen{data: data}
		a := g.plan(3)
		checkEqual(t, a, g.mutate(a))
		checkEqual(t, a, clonePlan(a))
		checkEqual(t, a, g.plan(3))
	})
}

func checkEqual(t *testing.T, a, b Node) {
	t.Helper()
	want := specEqual(a, b)
	if got := Equal(a, b); got != want {
		t.Fatalf("Equal = %v, string equality = %v\n a = %s\n b = %s", got, want, a, b)
	}
	if got := Equal(b, a); got != want {
		t.Fatalf("Equal (swapped) = %v, string equality = %v\n a = %s\n b = %s", got, want, a, b)
	}
}

// planGen draws generator choices from fuzz input; an exhausted input
// keeps choosing 0, which still ends in a finite plan.
type planGen struct {
	data []byte
}

func (g *planGen) pick(n int) int {
	if len(g.data) == 0 {
		return 0
	}
	v := int(g.data[0]) % n
	g.data = g.data[1:]
	return v
}

func (g *planGen) name(pool ...string) string { return pool[g.pick(len(pool))] }

var genOps = []oql.BinaryOp{oql.OpEq, oql.OpLt, oql.OpAnd, oql.OpAdd}

func (g *planGen) expr(depth int) oql.Expr {
	switch k := g.pick(7); {
	case k == 0:
		return &oql.Ident{Name: g.name("a", "b"), Star: g.pick(4) == 0}
	case k == 1:
		return &oql.Literal{Val: types.Int(int64(g.pick(2)))}
	case k == 2:
		return &oql.Literal{Val: types.Bool(g.pick(2) == 0)}
	case k == 3:
		return &oql.Path{Base: &oql.Ident{Name: g.name("x", "y")}, Field: g.name("a", "b")}
	case k == 4 && depth > 0:
		return &oql.Unary{Op: oql.OpNot, X: g.expr(depth - 1)}
	case depth > 0:
		return &oql.Binary{Op: genOps[g.pick(len(genOps))], L: g.expr(depth - 1), R: g.expr(depth - 1)}
	default:
		return &oql.Ident{Name: g.name("a", "b")}
	}
}

func (g *planGen) ref() ExtentRef {
	return ExtentRef{
		Extent:    g.name("p", "q"),
		Partition: g.name("", "r0", "r1"),
		Repo:      g.name("r0", "r1"),
		Attrs:     []string{"a", "b"},
	}
}

func (g *planGen) bag() *types.Bag {
	if g.pick(2) == 0 {
		return types.NewBag()
	}
	return types.NewBag(types.Int(int64(g.pick(2))))
}

func (g *planGen) cols() []Col {
	cols := make([]Col, 1+g.pick(2))
	for i := range cols {
		name := g.name("a", "b")
		cols[i] = Col{Name: name, Expr: &oql.Ident{Name: name}}
		if g.pick(2) == 0 {
			cols[i].Expr = g.expr(1)
		}
	}
	return cols
}

func (g *planGen) plan(depth int) Node {
	if depth == 0 {
		switch g.pick(3) {
		case 0:
			return &Const{Data: g.bag()}
		case 1:
			return &Eval{Expr: g.expr(1)}
		default:
			return &Get{Ref: g.ref()}
		}
	}
	in := func() Node { return g.plan(depth - 1) }
	switch g.pick(14) {
	case 0:
		inputs := make([]Node, 1+g.pick(3))
		for i := range inputs {
			inputs[i] = in()
		}
		return &Union{Inputs: inputs, Par: g.pick(2) == 0}
	case 1:
		return &Submit{Repo: g.name("r0", "r1"), Input: in()}
	case 2:
		return &Bind{Var: g.name("x", "y"), Input: in()}
	case 3:
		return &Select{Pred: g.expr(2), Input: in()}
	case 4:
		return &Project{Cols: g.cols(), Input: in()}
	case 5:
		return &Map{Expr: g.expr(1), Input: in()}
	case 6:
		j := &Join{L: in(), R: in()}
		if g.pick(2) == 0 {
			j.Pred = g.expr(2)
		}
		return j
	case 7:
		return &Nest{Groups: []NestGroup{{Var: g.name("x", "y"), Attrs: []string{g.name("a", "b")}}}, Input: in()}
	case 8:
		return &Depend{Var: g.name("x", "y"), Domain: g.expr(1), Input: in()}
	case 9:
		return &Distinct{Input: in()}
	case 10:
		return &Flatten{Input: in()}
	case 11:
		return &Agg{Fn: g.name("count", "sum", "distinct", "flatten"), Input: in()}
	default:
		return g.plan(0)
	}
}

// mutate returns a plan equal to n except that one node, chosen by the
// input, has one field replaced. Every other node is shared with n, as
// the rewrite fixpoints share them.
func (g *planGen) mutate(n Node) Node {
	nodes := 0
	Walk(n, func(Node) { nodes++ })
	target, visit := g.pick(nodes), 0
	return Transform(n, func(m Node) Node {
		visit++
		if visit-1 != target {
			return m
		}
		return g.edit(m)
	})
}

// edit changes one field of one node; the new value may render the same.
func (g *planGen) edit(n Node) Node {
	switch x := n.(type) {
	case *Get:
		ref := x.Ref
		switch g.pick(3) {
		case 0:
			ref.Extent = g.name("p", "q")
		case 1:
			ref.Partition = g.name("", "r0", "r1")
		default:
			ref.Repo, ref.Attrs = "elsewhere", nil // not rendered
		}
		return &Get{Ref: ref}
	case *Const:
		return &Const{Data: g.bag()}
	case *Union:
		if g.pick(2) == 0 {
			return &Union{Inputs: x.Inputs, Par: !x.Par}
		}
		return &Union{Inputs: x.Inputs[:len(x.Inputs)-1+g.pick(2)], Par: x.Par}
	case *Submit:
		return &Submit{Repo: g.name("r0", "r1"), Input: x.Input}
	case *Bind:
		return &Bind{Var: g.name("x", "y"), Input: x.Input}
	case *Select:
		return &Select{Pred: g.expr(2), Input: x.Input}
	case *Project:
		cols := append([]Col(nil), x.Cols...)
		i := g.pick(len(cols))
		switch g.pick(3) {
		case 0:
			cols[i].Name = g.name("a", "b")
		case 1:
			cols[i].Expr = &oql.Ident{Name: g.name("a", "b"), Star: g.pick(2) == 0}
		default:
			cols[i].Expr = g.expr(1)
		}
		return &Project{Cols: cols, Input: x.Input}
	case *Map:
		return &Map{Expr: g.expr(1), Input: x.Input}
	case *Join:
		var pred oql.Expr
		switch g.pick(3) {
		case 0:
			pred = &oql.Literal{Val: types.Bool(true)}
		case 1:
			pred = g.expr(2)
		}
		return &Join{L: x.L, R: x.R, Pred: pred}
	case *Nest:
		return &Nest{Groups: []NestGroup{{Var: g.name("x", "y"), Attrs: []string{g.name("a", "b")}}}, Input: x.Input}
	case *Depend:
		if g.pick(2) == 0 {
			return &Depend{Var: g.name("x", "y"), Domain: x.Domain, Input: x.Input}
		}
		return &Depend{Var: x.Var, Domain: g.expr(1), Input: x.Input}
	case *Distinct:
		return &Agg{Fn: "distinct", Input: x.Input}
	case *Flatten:
		return &Agg{Fn: "flatten", Input: x.Input}
	case *Agg:
		return &Agg{Fn: g.name("count", "sum", "distinct", "flatten"), Input: x.Input}
	case *Eval:
		return &Eval{Expr: g.expr(1)}
	}
	return n
}

// clonePlan deep-copies a plan, expressions and constant bags included, so
// that no pointer is shared with the original.
func clonePlan(n Node) Node {
	children := n.Children()
	copied := make([]Node, len(children))
	for i, c := range children {
		copied[i] = clonePlan(c)
	}
	switch x := n.(type) {
	case *Get:
		return &Get{Ref: x.Ref}
	case *Const:
		return &Const{Data: types.NewBag(x.Data.Elems()...)}
	case *Union:
		return &Union{Inputs: copied, Par: x.Par}
	case *Select:
		return &Select{Pred: cloneExpr(x.Pred), Input: copied[0]}
	case *Project:
		cols := make([]Col, len(x.Cols))
		for i, c := range x.Cols {
			cols[i] = Col{Name: c.Name, Expr: cloneExpr(c.Expr)}
		}
		return &Project{Cols: cols, Input: copied[0]}
	case *Map:
		return &Map{Expr: cloneExpr(x.Expr), Input: copied[0]}
	case *Join:
		var pred oql.Expr
		if x.Pred != nil {
			pred = cloneExpr(x.Pred)
		}
		return &Join{L: copied[0], R: copied[1], Pred: pred}
	case *Depend:
		return &Depend{Var: x.Var, Domain: cloneExpr(x.Domain), Input: copied[0]}
	case *Eval:
		return &Eval{Expr: cloneExpr(x.Expr)}
	case *Agg:
		return &Agg{Fn: x.Fn, Input: copied[0]}
	}
	if len(children) == 0 {
		return n
	}
	return n.WithChildren(copied)
}

func cloneExpr(e oql.Expr) oql.Expr {
	switch x := e.(type) {
	case *oql.Ident:
		c := *x
		return &c
	case *oql.Literal:
		c := *x
		return &c
	case *oql.Path:
		return &oql.Path{Base: cloneExpr(x.Base), Field: x.Field}
	case *oql.Unary:
		return &oql.Unary{Op: x.Op, X: cloneExpr(x.X)}
	case *oql.Binary:
		return &oql.Binary{Op: x.Op, L: cloneExpr(x.L), R: cloneExpr(x.R)}
	}
	return e
}

// TestTransformSharesUnchanged: an identity rewrite returns the plan
// itself, so no child slice is copied and the fixpoints stop on pointer
// identity.
func TestTransformSharesUnchanged(t *testing.T) {
	get := &Get{Ref: ExtentRef{Extent: "p"}}
	plan := &Union{Inputs: []Node{&Submit{Repo: "r0", Input: get}, &Distinct{Input: get}}}
	if got := Transform(plan, func(n Node) Node { return n }); got != Node(plan) {
		t.Errorf("identity Transform rebuilt the plan: %s", got)
	}
	allocs := testing.AllocsPerRun(100, func() {
		Transform(plan, func(n Node) Node { return n })
	})
	// Children of the single-input nodes allocate their one-element slice;
	// Transform itself allocates nothing when nothing changes.
	if allocs > 2 {
		t.Errorf("identity Transform allocated %v times per run, want at most 2", allocs)
	}
}
