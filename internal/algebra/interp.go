package algebra

import (
	"fmt"

	"disco/internal/oql"
	"disco/internal/types"
)

// Collections supplies named collections to a plan's get leaves: relations
// at a data source, a wrapper's file, or a test's in-memory fixtures.
type Collections interface {
	Collection(name string) (*types.Bag, error)
}

// CollectionsMap is a map-backed Collections.
type CollectionsMap map[string]*types.Bag

// Collection implements Collections.
func (m CollectionsMap) Collection(name string) (*types.Bag, error) {
	b, ok := m[name]
	if !ok {
		return nil, fmt.Errorf("unknown collection %q", name)
	}
	return b, nil
}

// Interp evaluates logical plans directly, one whole bag per operator. It is
// the executable specification; called only from tests (the specfence
// analyzer enforces it): internal/physical executes every plan in
// production, on both sides of the wire, and the differential tests check
// that it agrees with this interpreter on value and error outcome.
//
// Per-tuple expressions (select predicates, projections, join conditions,
// dependent domains) run as closure-compiled programs (oql.Compile), the
// same expression engine the physical layer uses, so the two executors
// differ in operator implementation only (the compiled evaluator is itself
// differentially tested against oql.Eval).
type Interp struct {
	// Cols resolves Get leaves. Get nodes look up Ref.Extent, so plans
	// translated with ToSource resolve source relation names and mediator
	// plans resolve extent names.
	Cols Collections
	// Resolver resolves free collection names inside expressions (nested
	// selects in projections and predicates). Nil means none resolve.
	Resolver oql.Resolver
	// Submitter executes submit nodes. Nil means submits are an error.
	Submitter func(repo string, expr Node) (types.Value, error)
}

func (in *Interp) resolver() oql.Resolver {
	if in.Resolver != nil {
		return in.Resolver
	}
	return oql.EmptyResolver
}

// Run evaluates the plan to a value: a bag for collection-valued operators,
// a scalar for Agg and whatever the expression yields for Eval.
func (in *Interp) Run(n Node) (types.Value, error) {
	switch x := n.(type) {
	case *Agg:
		input, err := in.runBag(x.Input)
		if err != nil {
			return nil, err
		}
		return oql.ApplyCall(x.Fn, []types.Value{input})
	case *Eval:
		return oql.Eval(x.Expr, nil, in.resolver())
	default:
		return in.runBag(n)
	}
}

func (in *Interp) runBag(n Node) (*types.Bag, error) {
	switch x := n.(type) {
	case *Get:
		if in.Cols == nil {
			return nil, fmt.Errorf("interp: no collections to resolve get(%s)", x.Ref.Extent)
		}
		return in.Cols.Collection(x.Ref.Extent)
	case *Const:
		return x.Data, nil
	case *Union:
		bags := make([]*types.Bag, 0, len(x.Inputs))
		for _, c := range x.Inputs {
			b, err := in.runBag(c)
			if err != nil {
				return nil, err
			}
			bags = append(bags, b)
		}
		return types.BagUnion(bags...), nil
	case *Submit:
		if in.Submitter == nil {
			return nil, fmt.Errorf("interp: no submitter for %s", x)
		}
		v, err := in.Submitter(x.Repo, x.Input)
		if err != nil {
			return nil, err
		}
		b, ok := v.(*types.Bag)
		if !ok {
			return nil, fmt.Errorf("interp: submit to %s returned %s, want bag", x.Repo, v.Kind())
		}
		return b, nil
	case *Bind:
		input, err := in.runBag(x.Input)
		if err != nil {
			return nil, err
		}
		return types.BagMap(input, func(e types.Value) (types.Value, error) {
			return types.NewStruct(types.Field{Name: x.Var, Value: e}), nil
		})
	case *Select:
		input, err := in.runBag(x.Input)
		if err != nil {
			return nil, err
		}
		eval, err := in.evaluator(x.Pred)
		if err != nil {
			return nil, err
		}
		return types.BagFilter(input, func(e types.Value) (bool, error) {
			v, err := eval(e)
			if err != nil {
				return false, err
			}
			return types.Truthy(v)
		})
	case *Project:
		input, err := in.runBag(x.Input)
		if err != nil {
			return nil, err
		}
		// The whole column list compiles into one struct-constructor
		// program, so each tuple binds its variables exactly once.
		eval, err := in.evaluator(ProjCtor(x.Cols))
		if err != nil {
			return nil, err
		}
		return types.BagMap(input, eval)
	case *Map:
		input, err := in.runBag(x.Input)
		if err != nil {
			return nil, err
		}
		eval, err := in.evaluator(x.Expr)
		if err != nil {
			return nil, err
		}
		return types.BagMap(input, eval)
	case *Join:
		return in.runJoin(x)
	case *Nest:
		input, err := in.runBag(x.Input)
		if err != nil {
			return nil, err
		}
		return types.BagMap(input, func(e types.Value) (types.Value, error) {
			st, ok := e.(*types.Struct)
			if !ok {
				return nil, fmt.Errorf("interp: nest over %s", e.Kind())
			}
			outer := make([]types.Field, 0, len(x.Groups))
			for _, g := range x.Groups {
				inner := make([]types.Field, 0, len(g.Attrs))
				for _, a := range g.Attrs {
					v, ok := st.Get(a)
					if !ok {
						return nil, fmt.Errorf("interp: nest attribute %q missing", a)
					}
					inner = append(inner, types.Field{Name: a, Value: v})
				}
				outer = append(outer, types.Field{Name: g.Var, Value: types.NewStruct(inner...)})
			}
			return types.NewStruct(outer...), nil
		})
	case *Depend:
		input, err := in.runBag(x.Input)
		if err != nil {
			return nil, err
		}
		eval, err := in.evaluator(x.Domain)
		if err != nil {
			return nil, err
		}
		var out []types.Value
		var rangeErr error
		input.Range(func(e types.Value) bool {
			dom, err := eval(e)
			if err != nil {
				rangeErr = err
				return false
			}
			st := e.(*types.Struct)
			if err := types.RangeElements(dom, func(d types.Value) bool {
				out = append(out, types.ExtendStruct(st, types.Field{Name: x.Var, Value: d}))
				return true
			}); err != nil {
				rangeErr = fmt.Errorf("interp: dependent domain for %s: %w", x.Var, err)
				return false
			}
			return true
		})
		if rangeErr != nil {
			return nil, rangeErr
		}
		return types.NewBag(out...), nil
	case *Distinct:
		input, err := in.runBag(x.Input)
		if err != nil {
			return nil, err
		}
		return types.BagDistinct(input), nil
	case *Flatten:
		input, err := in.runBag(x.Input)
		if err != nil {
			return nil, err
		}
		return types.Flatten(input)
	case *Eval:
		v, err := oql.Eval(x.Expr, nil, in.resolver())
		if err != nil {
			return nil, err
		}
		b, ok := v.(*types.Bag)
		if !ok {
			return nil, fmt.Errorf("interp: eval produced %s where a bag was needed", v.Kind())
		}
		return b, nil
	case *Agg:
		// An aggregate used where a collection is needed must itself have
		// produced a collection (matching the reference evaluator, which
		// errors on union/flatten over scalars).
		v, err := in.Run(x)
		if err != nil {
			return nil, err
		}
		b, ok := v.(*types.Bag)
		if !ok {
			return nil, fmt.Errorf("interp: %s produced %s where a collection was needed", x.Fn, v.Kind())
		}
		return b, nil
	default:
		return nil, fmt.Errorf("interp: unknown node %T", n)
	}
}

func (in *Interp) runJoin(x *Join) (*types.Bag, error) {
	left, err := in.runBag(x.L)
	if err != nil {
		return nil, err
	}
	right, err := in.runBag(x.R)
	if err != nil {
		return nil, err
	}
	var eval func(types.Value) (types.Value, error)
	if x.Pred != nil {
		eval, err = in.evaluator(x.Pred)
		if err != nil {
			return nil, err
		}
	}
	var out []types.Value
	for i := 0; i < left.Len(); i++ {
		l := left.At(i)
		ls, ok := l.(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("interp: join over %s elements", l.Kind())
		}
		for k := 0; k < right.Len(); k++ {
			r := right.At(k)
			rs, ok := r.(*types.Struct)
			if !ok {
				return nil, fmt.Errorf("interp: join over %s elements", r.Kind())
			}
			merged := types.JoinStructs(ls, rs)
			if eval != nil {
				v, err := eval(merged)
				if err != nil {
					return nil, err
				}
				keep, err := types.Truthy(v)
				if err != nil {
					return nil, err
				}
				if !keep {
					continue
				}
			}
			out = append(out, merged)
		}
	}
	return types.NewBag(out...), nil
}

// ProjCtor lowers a projection's column list into the single OQL struct
// constructor its tuples evaluate. It is the one definition of that
// lowering: both this specification and the physical layer's MkProj
// compile exactly this expression, so the two engines cannot diverge on
// projection semantics.
func ProjCtor(cols []Col) *oql.StructCtor {
	ctor := &oql.StructCtor{Fields: make([]oql.StructField, len(cols))}
	for i, c := range cols {
		ctor.Fields[i] = oql.StructField{Name: c.Name, Expr: c.Expr}
	}
	return ctor
}

// evaluator compiles an expression once and returns the per-tuple
// evaluation function: the element's struct fields bind into the program's
// flat slot environment (hoisted here, not per call). Compilation is per
// operator loop — amortized over the bag, not memoized (plans arrive
// freshly parsed, so their expression pointers would never hit a cache).
func (in *Interp) evaluator(e oql.Expr) (func(types.Value) (types.Value, error), error) {
	prog, err := oql.Compile(e)
	if err != nil {
		return nil, err
	}
	env := prog.NewEnv(in.resolver())
	return func(elem types.Value) (types.Value, error) {
		st, ok := elem.(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("interp: expression %s over non-struct element %s", e, elem)
		}
		env.BindStruct(st)
		return prog.Eval(env)
	}, nil
}

// ToSource translates a submit argument from the mediator namespace into
// the data-source namespace: extent names become source collection names
// and renamed attributes are rewritten through each extent's local
// transformation map (paper §3.3: "exec transforms the second argument ...
// using the map").
func ToSource(n Node) (Node, error) {
	rename := map[string]string{}
	conflict := map[string]bool{}
	Walk(n, func(m Node) {
		g, ok := m.(*Get)
		if !ok {
			return
		}
		for _, a := range g.Ref.Attrs {
			src := g.Ref.SourceAttr(a)
			if prev, seen := rename[a]; seen && prev != src {
				conflict[a] = true
			}
			rename[a] = src
		}
	})
	for a := range conflict {
		return nil, fmt.Errorf("algebra: attribute %q maps ambiguously across extents", a)
	}
	out := Transform(n, func(m Node) Node {
		switch x := m.(type) {
		case *Get:
			ref := x.Ref
			ref.Extent = ref.Source
			// Shard addressing is local to this mediator: the submit already
			// routes the call to the right repository, and a downstream
			// source (e.g. a composed mediator) knows the collection by its
			// plain name, not by this mediator's extent@repo form.
			ref.Partition = ""
			return &Get{Ref: ref}
		case *Select:
			return &Select{Pred: renameIdents(x.Pred, rename), Input: x.Input}
		case *Project:
			cols := make([]Col, len(x.Cols))
			for i, c := range x.Cols {
				cols[i] = Col{Name: rGet(rename, c.Name), Expr: renameIdents(c.Expr, rename)}
			}
			return &Project{Cols: cols, Input: x.Input}
		case *Join:
			if x.Pred == nil {
				return x
			}
			return &Join{L: x.L, R: x.R, Pred: renameIdents(x.Pred, rename)}
		default:
			return m
		}
	})
	return out, nil
}

// FromSource renames the attributes of a tuple returned by a data source
// back into the mediator namespace for one extent.
func FromSource(ref ExtentRef, tuple *types.Struct) *types.Struct {
	if len(ref.AttrMap) == 0 {
		return tuple
	}
	back := make(map[string]string, len(ref.AttrMap))
	for med, src := range ref.AttrMap {
		back[src] = med
	}
	fields := tuple.Fields()
	out := make([]types.Field, len(fields))
	for i, f := range fields {
		name := f.Name
		if med, ok := back[name]; ok {
			name = med
		}
		out[i] = types.Field{Name: name, Value: f.Value}
	}
	return types.NewStruct(out...)
}

func rGet(rename map[string]string, name string) string {
	if s, ok := rename[name]; ok {
		return s
	}
	return name
}

func renameIdents(e oql.Expr, rename map[string]string) oql.Expr {
	switch x := e.(type) {
	case *oql.Ident:
		if s, ok := rename[x.Name]; ok && !x.Star {
			return &oql.Ident{Name: s}
		}
		return x
	case *oql.Unary:
		return &oql.Unary{Op: x.Op, X: renameIdents(x.X, rename)}
	case *oql.Binary:
		return &oql.Binary{Op: x.Op, L: renameIdents(x.L, rename), R: renameIdents(x.R, rename)}
	case *oql.Call:
		args := make([]oql.Expr, len(x.Args))
		for i, a := range x.Args {
			args[i] = renameIdents(a, rename)
		}
		return &oql.Call{Fn: x.Fn, Args: args}
	default:
		return e
	}
}
