// Package algebra implements DISCO's logical algebra (paper §3.1-3.2): the
// operators get, select (filter), project, join, union, flatten and the
// submit operator that locates a subexpression at a data source. Plans
// compile from OQL, rewrite under capability-checked transformation rules,
// and convert back to OQL — the property partial evaluation relies on
// (§4: "each logical operation has a corresponding OQL expression").
package algebra

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"disco/internal/oql"
	"disco/internal/types"
)

// Node is a logical operator. Nodes form immutable trees; rewrites build new
// trees via WithChildren.
type Node interface {
	// String renders the node in the paper's prefix syntax, e.g.
	// project(name, get(person0)).
	String() string
	// Children returns the input operators in order.
	Children() []Node
	// WithChildren returns a copy of the node with the inputs replaced.
	// The slice length must match Children.
	WithChildren(children []Node) Node
}

// ExtentRef identifies one data-source extent as registered in the catalog.
// Attribute names and predicates in plans always use the mediator namespace;
// AttrMap carries the local transformation map (paper §2.2.2) that exec
// applies when translating the expression for the wrapper.
type ExtentRef struct {
	// Extent is the extent name in the mediator (e.g. person0).
	Extent string
	// Repo is the repository object name (e.g. r0).
	Repo string
	// Source is the collection name inside the data source, after applying
	// the local transformation map. Equal to Extent when no map is set.
	Source string
	// Iface is the mediator interface name of the extent's objects.
	Iface string
	// Attrs lists the mediator-side attribute names of Iface.
	Attrs []string
	// AttrMap maps mediator attribute names to source attribute names for
	// attributes renamed by the local transformation map.
	AttrMap map[string]string
	// Partition is set when this ref is one shard of a horizontally
	// partitioned extent: the repository name of the shard. Partitioned gets
	// render as extent@repo so a residual query can name exactly the shards
	// that did not answer.
	Partition string
	// Replicas lists every repository holding a copy of this shard's data,
	// primary first (the declared "at r0|r0b" replica group). Empty or
	// single-element when the shard is unreplicated. Like PartSpec it does
	// not render into the plan string: it is placement metadata the runtime
	// uses to fail a submit over to a replica when the primary does not
	// answer.
	Replicas []string
	// PartSpec is the extent's declared partitioning scheme (nil when none).
	// It does not render into the plan string: the (Extent, Partition) pair
	// already identifies the shard, and the scheme is catalog metadata.
	PartSpec *PartitionSpec
	// PartIndex and PartCount locate this shard within the scheme: the
	// shard's position in the declared repository list and the total number
	// of partitions. Meaningful only when PartSpec is set.
	PartIndex, PartCount int
	// Standby marks the new-placement branch of a dual-read during live
	// migration: the copy at the destination repository before cutover makes
	// it authoritative. Like Replicas it does not render into the plan
	// string. The runtime treats an unavailable standby as an empty answer
	// rather than a residual — the old placement still holds every row, so
	// a dead new copy degrades the migration, not the query.
	Standby bool
}

// QualifiedName is the OQL-level name of the extent this ref reads: the
// plain extent name, or extent@repo for one shard of a partitioned extent.
func (r ExtentRef) QualifiedName() string {
	if r.Partition == "" {
		return r.Extent
	}
	return r.Extent + "@" + r.Partition
}

// SourceAttr translates a mediator attribute name to the source namespace.
func (r ExtentRef) SourceAttr(name string) string {
	if s, ok := r.AttrMap[name]; ok {
		return s
	}
	return name
}

// Get retrieves all objects of one data-source extent (the paper's
// get(person0)). It is the leaf of source-side expressions.
type Get struct {
	Ref ExtentRef
}

// String implements Node.
func (g *Get) String() string { return "get(" + g.Ref.QualifiedName() + ")" }

// Children implements Node.
func (*Get) Children() []Node { return nil }

// WithChildren implements Node.
func (g *Get) WithChildren(children []Node) Node {
	mustArity("get", children, 0)
	return g
}

// Const is literal data embedded in a plan: bag literals in queries and the
// data part of partial answers.
type Const struct {
	Data *types.Bag
}

// String implements Node.
func (c *Const) String() string { return "const(" + c.Data.String() + ")" }

// Children implements Node.
func (*Const) Children() []Node { return nil }

// WithChildren implements Node.
func (c *Const) WithChildren(children []Node) Node {
	mustArity("const", children, 0)
	return c
}

// Union is n-ary bag union (duplicates preserved). A Par union is the
// fan-out over the shards of one horizontally partitioned extent: the
// physical layer executes its inputs with a scatter-gather operator that
// merges shard streams as they arrive instead of draining them in order.
type Union struct {
	Inputs []Node
	// Par marks a partition fan-out whose branches may merge in arrival
	// order (bag semantics make the reordering sound).
	Par bool
}

// String implements Node.
func (u *Union) String() string {
	parts := make([]string, len(u.Inputs))
	for i, in := range u.Inputs {
		parts[i] = in.String()
	}
	op := "union"
	if u.Par {
		op = "punion"
	}
	return op + "(" + strings.Join(parts, ", ") + ")"
}

// Children implements Node.
func (u *Union) Children() []Node { return u.Inputs }

// WithChildren implements Node.
func (u *Union) WithChildren(children []Node) Node {
	mustArity("union", children, len(u.Inputs))
	return &Union{Inputs: children, Par: u.Par}
}

// Submit locates the evaluation of Input at a data source (paper §3.2).
// It has remote-procedure-call semantics: the input expression travels to
// the wrapper, data comes back. It cannot accept data from another source,
// which is why semijoins are inexpressible (a restriction the paper states).
type Submit struct {
	Repo  string
	Input Node
}

// String implements Node.
func (s *Submit) String() string {
	return "submit(" + s.Repo + ", " + s.Input.String() + ")"
}

// Children implements Node.
func (s *Submit) Children() []Node { return []Node{s.Input} }

// WithChildren implements Node.
func (s *Submit) WithChildren(children []Node) Node {
	mustArity("submit", children, 1)
	return &Submit{Repo: s.Repo, Input: children[0]}
}

// Bind wraps each element e of the input into a one-field struct {Var: e},
// introducing the OQL variable naming that downstream predicates use.
type Bind struct {
	Var   string
	Input Node
}

// String implements Node.
func (b *Bind) String() string {
	return "bind(" + b.Var + ", " + b.Input.String() + ")"
}

// Children implements Node.
func (b *Bind) Children() []Node { return []Node{b.Input} }

// WithChildren implements Node.
func (b *Bind) WithChildren(children []Node) Node {
	mustArity("bind", children, 1)
	return &Bind{Var: b.Var, Input: children[0]}
}

// Select filters elements by a predicate (the paper's select operator; the
// runtime name Filter avoids clashing with OQL select). The predicate is an
// OQL expression evaluated with the element's struct fields bound as
// variables: source-side that means attribute names (salary > 10),
// mediator-side the bind variables (x.salary > 10).
type Select struct {
	Pred  oql.Expr
	Input Node
}

// String implements Node.
func (s *Select) String() string {
	return "select(" + s.Pred.String() + ", " + s.Input.String() + ")"
}

// Children implements Node.
func (s *Select) Children() []Node { return []Node{s.Input} }

// WithChildren implements Node.
func (s *Select) WithChildren(children []Node) Node {
	mustArity("select", children, 1)
	return &Select{Pred: s.Pred, Input: children[0]}
}

// Col is one output column of a Project.
type Col struct {
	Name string
	Expr oql.Expr
}

// Project maps each element to a struct of named columns (the paper's
// project operator).
type Project struct {
	Cols  []Col
	Input Node
}

// String implements Node.
func (p *Project) String() string {
	parts := make([]string, len(p.Cols))
	for i, c := range p.Cols {
		if id, ok := c.Expr.(*oql.Ident); ok && id.Name == c.Name && !id.Star {
			parts[i] = c.Name
		} else {
			parts[i] = c.Name + ": " + c.Expr.String()
		}
	}
	return "project([" + strings.Join(parts, ", ") + "], " + p.Input.String() + ")"
}

// Children implements Node.
func (p *Project) Children() []Node { return []Node{p.Input} }

// WithChildren implements Node.
func (p *Project) WithChildren(children []Node) Node {
	mustArity("project", children, 1)
	return &Project{Cols: p.Cols, Input: children[0]}
}

// Map evaluates an arbitrary OQL expression per element (the final
// projection step when the result is not a struct, e.g. select x.name).
type Map struct {
	Expr  oql.Expr
	Input Node
}

// String implements Node.
func (m *Map) String() string {
	return "map(" + m.Expr.String() + ", " + m.Input.String() + ")"
}

// Children implements Node.
func (m *Map) Children() []Node { return []Node{m.Input} }

// WithChildren implements Node.
func (m *Map) WithChildren(children []Node) Node {
	mustArity("map", children, 1)
	return &Map{Expr: m.Expr, Input: children[0]}
}

// Join combines two inputs of struct elements into merged structs, keeping
// pairs that satisfy Pred. Field sets of the two sides must be disjoint.
type Join struct {
	L, R Node
	Pred oql.Expr // nil means cross product
}

// String implements Node.
func (j *Join) String() string {
	pred := "true"
	if j.Pred != nil {
		pred = j.Pred.String()
	}
	return "join(" + j.L.String() + ", " + j.R.String() + ", " + pred + ")"
}

// Children implements Node.
func (j *Join) Children() []Node { return []Node{j.L, j.R} }

// WithChildren implements Node.
func (j *Join) WithChildren(children []Node) Node {
	mustArity("join", children, 2)
	return &Join{L: children[0], R: children[1], Pred: j.Pred}
}

// NestGroup names one variable of a Nest and the attributes it owns.
type NestGroup struct {
	Var   string
	Attrs []string
}

// Nest re-nests flat joined tuples into per-variable structs: a flat tuple
// {a, b, c, d} with groups x→{a,b}, y→{c,d} becomes
// {x: struct(a, b), y: struct(c, d)}. It is the mediator-side complement of
// join pushdown.
type Nest struct {
	Groups []NestGroup
	Input  Node
}

// String implements Node.
func (n *Nest) String() string {
	parts := make([]string, len(n.Groups))
	for i, g := range n.Groups {
		parts[i] = g.Var + ": {" + strings.Join(g.Attrs, ", ") + "}"
	}
	return "nest([" + strings.Join(parts, ", ") + "], " + n.Input.String() + ")"
}

// Children implements Node.
func (n *Nest) Children() []Node { return []Node{n.Input} }

// WithChildren implements Node.
func (n *Nest) WithChildren(children []Node) Node {
	mustArity("nest", children, 1)
	return &Nest{Groups: n.Groups, Input: children[0]}
}

// Depend binds Var to the elements of a domain expression evaluated per
// input element (a dependent from-clause binding such as m in g.members).
type Depend struct {
	Var    string
	Domain oql.Expr
	Input  Node
}

// String implements Node.
func (d *Depend) String() string {
	return "depend(" + d.Var + ", " + d.Domain.String() + ", " + d.Input.String() + ")"
}

// Children implements Node.
func (d *Depend) Children() []Node { return []Node{d.Input} }

// WithChildren implements Node.
func (d *Depend) WithChildren(children []Node) Node {
	mustArity("depend", children, 1)
	return &Depend{Var: d.Var, Domain: d.Domain, Input: children[0]}
}

// Distinct removes duplicate elements.
type Distinct struct {
	Input Node
}

// String implements Node.
func (d *Distinct) String() string { return "distinct(" + d.Input.String() + ")" }

// Children implements Node.
func (d *Distinct) Children() []Node { return []Node{d.Input} }

// WithChildren implements Node.
func (d *Distinct) WithChildren(children []Node) Node {
	mustArity("distinct", children, 1)
	return &Distinct{Input: children[0]}
}

// Flatten concatenates a bag of collections.
type Flatten struct {
	Input Node
}

// String implements Node.
func (f *Flatten) String() string { return "flatten(" + f.Input.String() + ")" }

// Children implements Node.
func (f *Flatten) Children() []Node { return []Node{f.Input} }

// WithChildren implements Node.
func (f *Flatten) WithChildren(children []Node) Node {
	mustArity("flatten", children, 1)
	return &Flatten{Input: children[0]}
}

// Agg applies an aggregate function (count, sum, min, max, avg, exists,
// element) to the whole input, producing a single-element bag holding the
// scalar.
type Agg struct {
	Fn    string
	Input Node
}

// String implements Node.
func (a *Agg) String() string { return a.Fn + "(" + a.Input.String() + ")" }

// Children implements Node.
func (a *Agg) Children() []Node { return []Node{a.Input} }

// WithChildren implements Node.
func (a *Agg) WithChildren(children []Node) Node {
	mustArity(a.Fn, children, 1)
	return &Agg{Fn: a.Fn, Input: children[0]}
}

// Eval is the generic fallback: evaluate an arbitrary OQL expression as one
// compiled program against the mediator's name resolver. Plans never
// push through it; it exists so every OQL query is executable even when it
// falls outside the planned fragment.
type Eval struct {
	Expr oql.Expr
}

// String implements Node.
func (e *Eval) String() string { return "eval(" + e.Expr.String() + ")" }

// Children implements Node.
func (*Eval) Children() []Node { return nil }

// WithChildren implements Node.
func (e *Eval) WithChildren(children []Node) Node {
	mustArity("eval", children, 0)
	return e
}

// Compile-time conformance checks.
var (
	_ Node = (*Get)(nil)
	_ Node = (*Const)(nil)
	_ Node = (*Union)(nil)
	_ Node = (*Submit)(nil)
	_ Node = (*Bind)(nil)
	_ Node = (*Select)(nil)
	_ Node = (*Project)(nil)
	_ Node = (*Map)(nil)
	_ Node = (*Join)(nil)
	_ Node = (*Nest)(nil)
	_ Node = (*Depend)(nil)
	_ Node = (*Distinct)(nil)
	_ Node = (*Flatten)(nil)
	_ Node = (*Agg)(nil)
	_ Node = (*Eval)(nil)
)

func mustArity(op string, children []Node, n int) {
	if len(children) != n {
		panic(fmt.Sprintf("algebra: %s takes %d children, got %d", op, n, len(children)))
	}
}

// Equal reports whether two plans are identical: whether their canonical
// strings, which carry every semantically relevant detail, are equal. It
// walks both trees instead of rendering them: shared subtrees compare by
// pointer, the walk returns at the first node whose operator or
// parameters differ, and expressions compare by pointer before falling
// back to their text.
// Constant data and node types this package does not define compare by
// their rendering. The string-equality specification in equal_spec_test.go
// holds this walk to String over generated plan pairs.
func Equal(a, b Node) bool {
	if a == b {
		return true
	}
	switch x := a.(type) {
	case *Get:
		if y, ok := b.(*Get); ok {
			return x.Ref.Extent == y.Ref.Extent && x.Ref.Partition == y.Ref.Partition ||
				x.Ref.QualifiedName() == y.Ref.QualifiedName()
		}
	case *Const:
		if y, ok := b.(*Const); ok {
			return x.Data == y.Data || x.String() == y.String()
		}
	case *Union:
		if y, ok := b.(*Union); ok {
			if x.Par != y.Par || len(x.Inputs) != len(y.Inputs) {
				return false
			}
			for i := range x.Inputs {
				if !Equal(x.Inputs[i], y.Inputs[i]) {
					return false
				}
			}
			return true
		}
	case *Submit:
		if y, ok := b.(*Submit); ok {
			return x.Repo == y.Repo && Equal(x.Input, y.Input)
		}
	case *Bind:
		if y, ok := b.(*Bind); ok {
			return x.Var == y.Var && Equal(x.Input, y.Input)
		}
	case *Select:
		if y, ok := b.(*Select); ok {
			return exprEqual(x.Pred, y.Pred) && Equal(x.Input, y.Input)
		}
	case *Project:
		if y, ok := b.(*Project); ok {
			if len(x.Cols) != len(y.Cols) {
				return false
			}
			for i, c := range x.Cols {
				d := y.Cols[i]
				if c.Name != d.Name || !exprEqual(c.Expr, d.Expr) {
					return false
				}
			}
			return Equal(x.Input, y.Input)
		}
	case *Map:
		if y, ok := b.(*Map); ok {
			return exprEqual(x.Expr, y.Expr) && Equal(x.Input, y.Input)
		}
	case *Join:
		if y, ok := b.(*Join); ok {
			return joinPredEqual(x.Pred, y.Pred) && Equal(x.L, y.L) && Equal(x.R, y.R)
		}
	case *Nest:
		if y, ok := b.(*Nest); ok {
			if len(x.Groups) != len(y.Groups) {
				return false
			}
			for i, g := range x.Groups {
				if g.Var != y.Groups[i].Var || !slices.Equal(g.Attrs, y.Groups[i].Attrs) {
					return false
				}
			}
			return Equal(x.Input, y.Input)
		}
	case *Depend:
		if y, ok := b.(*Depend); ok {
			return x.Var == y.Var && exprEqual(x.Domain, y.Domain) && Equal(x.Input, y.Input)
		}
	case *Distinct:
		if y, ok := b.(*Distinct); ok {
			return Equal(x.Input, y.Input)
		}
	case *Flatten:
		if y, ok := b.(*Flatten); ok {
			return Equal(x.Input, y.Input)
		}
	case *Agg:
		if y, ok := b.(*Agg); ok {
			return x.Fn == y.Fn && Equal(x.Input, y.Input)
		}
	case *Eval:
		if y, ok := b.(*Eval); ok {
			return exprEqual(x.Expr, y.Expr)
		}
	}
	// Different operators render under different names — unless one is an
	// Agg, whose function name may spell another operator's (an Agg "distinct"
	// renders like a Distinct), or a node type defined elsewhere.
	if namedOp(a) && namedOp(b) {
		return false
	}
	return a.String() == b.String()
}

// namedOp reports whether n is one of this package's operators whose
// rendering starts with its own fixed operator name.
func namedOp(n Node) bool {
	switch n.(type) {
	case *Get, *Const, *Union, *Submit, *Bind, *Select, *Project, *Map,
		*Join, *Nest, *Depend, *Distinct, *Flatten, *Eval:
		return true
	}
	return false
}

// exprEqual compares two expressions by pointer, then by rendering.
func exprEqual(a, b oql.Expr) bool { return a == b || a.String() == b.String() }

// joinPredEqual is exprEqual for join predicates, where nil renders as
// "true".
func joinPredEqual(a, b oql.Expr) bool {
	switch {
	case a == b:
		return true
	case a == nil:
		return b.String() == "true"
	case b == nil:
		return a.String() == "true"
	}
	return a.String() == b.String()
}

// Transform applies f bottom-up over the plan, rebuilding nodes whose
// children changed. A node's child slice is copied only once one of its
// children actually changes.
func Transform(n Node, f func(Node) Node) Node {
	children := n.Children()
	var rebuilt []Node
	for i, c := range children {
		t := Transform(c, f)
		if rebuilt == nil {
			if t == c {
				continue
			}
			rebuilt = make([]Node, len(children))
			copy(rebuilt, children[:i])
		}
		rebuilt[i] = t
	}
	if rebuilt != nil {
		n = n.WithChildren(rebuilt)
	}
	return f(n)
}

// Walk visits every node of the plan top-down.
func Walk(n Node, visit func(Node)) {
	visit(n)
	for _, c := range n.Children() {
		Walk(c, visit)
	}
}

// Submits returns all submit nodes in the plan in visit order.
func Submits(n Node) []*Submit {
	var out []*Submit
	Walk(n, func(m Node) {
		if s, ok := m.(*Submit); ok {
			out = append(out, s)
		}
	})
	return out
}

// OutputAttrs computes the attribute names of the structs a source-side
// node produces, in the mediator namespace. It reports ok=false for nodes
// whose output is not a flat struct relation (e.g. Map).
func OutputAttrs(n Node) ([]string, bool) {
	switch x := n.(type) {
	case *Get:
		return append([]string(nil), x.Ref.Attrs...), true
	case *Const:
		// Uniform struct data exposes its field names (partial answers
		// substitute constants for submits, so this keeps residual
		// rendering working above them).
		if x.Data.Len() == 0 {
			return nil, false
		}
		first, ok := x.Data.At(0).(*types.Struct)
		if !ok {
			return nil, false
		}
		names := first.FieldNames()
		for _, e := range x.Data.Elems()[1:] {
			st, ok := e.(*types.Struct)
			if !ok || !sameStrings(names, st.FieldNames()) {
				return nil, false
			}
		}
		return names, true
	case *Select:
		return OutputAttrs(x.Input)
	case *Distinct:
		return OutputAttrs(x.Input)
	case *Project:
		attrs := make([]string, len(x.Cols))
		for i, c := range x.Cols {
			attrs[i] = c.Name
		}
		return attrs, true
	case *Join:
		l, ok := OutputAttrs(x.L)
		if !ok {
			return nil, false
		}
		r, ok := OutputAttrs(x.R)
		if !ok {
			return nil, false
		}
		return append(l, r...), true
	case *Union:
		if len(x.Inputs) == 0 {
			return nil, false
		}
		first, ok := OutputAttrs(x.Inputs[0])
		if !ok {
			return nil, false
		}
		for _, in := range x.Inputs[1:] {
			rest, ok := OutputAttrs(in)
			if !ok || !sameStrings(first, rest) {
				return nil, false
			}
		}
		return first, true
	case *Submit:
		return OutputAttrs(x.Input)
	default:
		return nil, false
	}
}

func sameStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	as := append([]string(nil), a...)
	bs := append([]string(nil), b...)
	sort.Strings(as)
	sort.Strings(bs)
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}
