package oql

import (
	"fmt"
	"sort"
	"strings"

	"disco/internal/types"
)

// Resolver resolves free collection names (extents and views) during
// evaluation. star is true for the DISCO T* subtype-closure reference.
type Resolver interface {
	Resolve(name string, star bool) (types.Value, error)
}

// ResolverFunc adapts a function to the Resolver interface.
type ResolverFunc func(name string, star bool) (types.Value, error)

// Resolve implements Resolver.
func (f ResolverFunc) Resolve(name string, star bool) (types.Value, error) {
	return f(name, star)
}

// EmptyResolver resolves nothing; it serves contexts where every name must
// already be bound.
var EmptyResolver Resolver = ResolverFunc(func(name string, _ bool) (types.Value, error) {
	return nil, fmt.Errorf("unknown name %q", name)
})

// Env is a chain of variable bindings introduced by from clauses.
type Env struct {
	name   string
	val    types.Value
	parent *Env
}

// Bind returns a new environment extending e with one binding.
func (e *Env) Bind(name string, val types.Value) *Env {
	return &Env{name: name, val: val, parent: e}
}

// Lookup finds the innermost binding of name.
func (e *Env) Lookup(name string) (types.Value, bool) {
	for cur := e; cur != nil; cur = cur.parent {
		if cur.name == name {
			return cur.val, true
		}
	}
	return nil, false
}

// EvalError is an evaluation failure annotated with the failing expression.
type EvalError struct {
	Expr Expr
	Err  error
}

// Error implements the error interface.
func (e *EvalError) Error() string {
	return fmt.Sprintf("eval %s: %v", e.Expr, e.Err)
}

// Unwrap supports errors.Is/As.
func (e *EvalError) Unwrap() error { return e.Err }

// Eval evaluates an OQL expression against an environment and a resolver by
// walking the tree. It is the executable specification; called only from
// tests (and from algebra.Interp, the plan-level specification — the
// specfence analyzer enforces both): production evaluates compiled programs
// (Compile), which the differential and fuzz tests check against it.
func Eval(e Expr, env *Env, r Resolver) (types.Value, error) {
	v, err := eval(e, env, r)
	if err != nil {
		if _, ok := err.(*EvalError); ok {
			return nil, err
		}
		return nil, &EvalError{Expr: e, Err: err}
	}
	return v, nil
}

func eval(e Expr, env *Env, r Resolver) (types.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Val, nil
	case *Ident:
		if !x.Star {
			if v, ok := env.Lookup(x.Name); ok {
				return v, nil
			}
		}
		return r.Resolve(x.Name, x.Star)
	case *Path:
		base, err := Eval(x.Base, env, r)
		if err != nil {
			return nil, err
		}
		st, ok := base.(*types.Struct)
		if !ok {
			return nil, fmt.Errorf("cannot access .%s on %s", x.Field, base.Kind())
		}
		v, ok := st.Get(x.Field)
		if !ok {
			return nil, fmt.Errorf("no attribute %q in %s", x.Field, base)
		}
		return v, nil
	case *Unary:
		return evalUnary(x, env, r)
	case *Binary:
		return evalBinary(x, env, r)
	case *StructCtor:
		fields := make([]types.Field, 0, len(x.Fields))
		for _, f := range x.Fields {
			v, err := Eval(f.Expr, env, r)
			if err != nil {
				return nil, err
			}
			fields = append(fields, types.Field{Name: f.Name, Value: v})
		}
		return types.NewStruct(fields...), nil
	case *Call:
		return evalCall(x, env, r)
	case *Select:
		return evalSelect(x, env, r)
	default:
		return nil, fmt.Errorf("cannot evaluate %T", e)
	}
}

func evalUnary(x *Unary, env *Env, r Resolver) (types.Value, error) {
	v, err := Eval(x.X, env, r)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case OpNot:
		b, err := types.Truthy(v)
		if err != nil {
			return nil, err
		}
		return types.Bool(!b), nil
	case OpNeg:
		switch n := v.(type) {
		case types.Int:
			return types.Int(-n), nil
		case types.Float:
			return types.Float(-n), nil
		default:
			return nil, fmt.Errorf("cannot negate %s", v.Kind())
		}
	default:
		return nil, fmt.Errorf("unknown unary operator")
	}
}

func evalBinary(x *Binary, env *Env, r Resolver) (types.Value, error) {
	// and/or short-circuit.
	if x.Op == OpAnd || x.Op == OpOr {
		lv, err := Eval(x.L, env, r)
		if err != nil {
			return nil, err
		}
		lb, err := types.Truthy(lv)
		if err != nil {
			return nil, err
		}
		if (x.Op == OpAnd && !lb) || (x.Op == OpOr && lb) {
			return types.Bool(lb), nil
		}
		rv, err := Eval(x.R, env, r)
		if err != nil {
			return nil, err
		}
		rb, err := types.Truthy(rv)
		if err != nil {
			return nil, err
		}
		return types.Bool(rb), nil
	}

	lv, err := Eval(x.L, env, r)
	if err != nil {
		return nil, err
	}
	rv, err := Eval(x.R, env, r)
	if err != nil {
		return nil, err
	}
	return ApplyBinary(x.Op, lv, rv)
}

// ApplyBinary applies a non-boolean-connective binary operator to two
// values. It is exported so data-source engines evaluate predicates with
// exactly the mediator's semantics (the paper warns that operator semantics
// must match exactly between mediator and source, §3.2).
func ApplyBinary(op BinaryOp, lv, rv types.Value) (types.Value, error) {
	switch op {
	case OpEq:
		return types.Bool(lv.Equal(rv)), nil
	case OpNe:
		return types.Bool(!lv.Equal(rv)), nil
	case OpLt, OpLe, OpGt, OpGe:
		c, err := types.Compare(lv, rv)
		if err != nil {
			return nil, err
		}
		switch op {
		case OpLt:
			return types.Bool(c < 0), nil
		case OpLe:
			return types.Bool(c <= 0), nil
		case OpGt:
			return types.Bool(c > 0), nil
		default:
			return types.Bool(c >= 0), nil
		}
	case OpIn:
		found := false
		if err := types.RangeElements(rv, func(e types.Value) bool {
			found = e.Equal(lv)
			return !found
		}); err != nil {
			return nil, fmt.Errorf("right side of in: %w", err)
		}
		return types.Bool(found), nil
	case OpAdd, OpSub, OpMul, OpDiv, OpMod:
		return applyArith(op, lv, rv)
	default:
		return nil, fmt.Errorf("unknown binary operator %s", op)
	}
}

func applyArith(op BinaryOp, lv, rv types.Value) (types.Value, error) {
	// String concatenation via +.
	if op == OpAdd {
		if ls, ok := lv.(types.Str); ok {
			rs, ok := rv.(types.Str)
			if !ok {
				return nil, fmt.Errorf("cannot add %s to string", rv.Kind())
			}
			return ls + rs, nil
		}
	}
	li, lInt := lv.(types.Int)
	ri, rInt := rv.(types.Int)
	if lInt && rInt {
		switch op {
		case OpAdd:
			return li + ri, nil
		case OpSub:
			return li - ri, nil
		case OpMul:
			return li * ri, nil
		case OpDiv:
			if ri == 0 {
				return nil, fmt.Errorf("division by zero")
			}
			return li / ri, nil
		case OpMod:
			if ri == 0 {
				return nil, fmt.Errorf("modulo by zero")
			}
			return li % ri, nil
		}
	}
	lf, lok := types.Numeric(lv)
	rf, rok := types.Numeric(rv)
	if !lok || !rok {
		return nil, fmt.Errorf("cannot apply %s to %s and %s", op, lv.Kind(), rv.Kind())
	}
	switch op {
	case OpAdd:
		return types.Float(lf + rf), nil
	case OpSub:
		return types.Float(lf - rf), nil
	case OpMul:
		return types.Float(lf * rf), nil
	case OpDiv:
		if rf == 0 {
			return nil, fmt.Errorf("division by zero")
		}
		return types.Float(lf / rf), nil
	default:
		return nil, fmt.Errorf("mod requires integers")
	}
}

func evalCall(x *Call, env *Env, r Resolver) (types.Value, error) {
	args := make([]types.Value, 0, len(x.Args))
	for _, a := range x.Args {
		v, err := Eval(a, env, r)
		if err != nil {
			return nil, err
		}
		args = append(args, v)
	}
	return ApplyCall(x.Fn, args)
}

// ApplyCall applies a built-in OQL function to evaluated arguments.
func ApplyCall(fn string, args []types.Value) (types.Value, error) {
	switch fn {
	case "bag":
		return types.NewBag(args...), nil
	case "list":
		return types.NewList(args...), nil
	case "set":
		return types.NewSet(args...), nil
	case "union":
		bags := make([]*types.Bag, 0, len(args))
		for _, a := range args {
			b, err := toBag(a)
			if err != nil {
				return nil, fmt.Errorf("union: %w", err)
			}
			bags = append(bags, b)
		}
		return types.BagUnion(bags...), nil
	case "flatten":
		if err := wantArgs(fn, args, 1); err != nil {
			return nil, err
		}
		b, err := toBag(args[0])
		if err != nil {
			return nil, fmt.Errorf("flatten: %w", err)
		}
		return types.Flatten(b)
	case "distinct":
		if err := wantArgs(fn, args, 1); err != nil {
			return nil, err
		}
		b, err := toBag(args[0])
		if err != nil {
			return nil, fmt.Errorf("distinct: %w", err)
		}
		return types.BagDistinct(b), nil
	case "sort":
		// sort(coll) orders elements canonically (scalars by value,
		// everything else by canonical key) and returns a list — bags are
		// unordered, so presentation order needs an explicit operator.
		if err := wantArgs(fn, args, 1); err != nil {
			return nil, err
		}
		elems, err := types.Elements(args[0])
		if err != nil {
			return nil, fmt.Errorf("sort: %w", err)
		}
		sorted := append([]types.Value(nil), elems...)
		sort.SliceStable(sorted, func(i, j int) bool {
			if c, err := types.Compare(sorted[i], sorted[j]); err == nil {
				return c < 0
			}
			return types.CanonicalKey(sorted[i]) < types.CanonicalKey(sorted[j])
		})
		return types.NewList(sorted...), nil
	case "count":
		if err := wantArgs(fn, args, 1); err != nil {
			return nil, err
		}
		n, err := types.NumElements(args[0])
		if err != nil {
			return nil, fmt.Errorf("count: %w", err)
		}
		return types.Int(n), nil
	case "exists":
		if err := wantArgs(fn, args, 1); err != nil {
			return nil, err
		}
		n, err := types.NumElements(args[0])
		if err != nil {
			return nil, fmt.Errorf("exists: %w", err)
		}
		return types.Bool(n > 0), nil
	case "element":
		if err := wantArgs(fn, args, 1); err != nil {
			return nil, err
		}
		elems, err := types.Elements(args[0])
		if err != nil {
			return nil, fmt.Errorf("element: %w", err)
		}
		if len(elems) != 1 {
			return nil, fmt.Errorf("element: collection has %d elements, want exactly 1", len(elems))
		}
		return elems[0], nil
	case "sum", "avg", "min", "max":
		if err := wantArgs(fn, args, 1); err != nil {
			return nil, err
		}
		return aggregate(fn, args[0])
	case "contains":
		// contains(haystack, needle): substring test. Keyword-search
		// wrappers push it to their sources as a GREP.
		if err := wantArgs(fn, args, 2); err != nil {
			return nil, err
		}
		hay, ok := args[0].(types.Str)
		if !ok {
			return nil, fmt.Errorf("contains: first argument is %s, want string", args[0].Kind())
		}
		needle, ok := args[1].(types.Str)
		if !ok {
			return nil, fmt.Errorf("contains: second argument is %s, want string", args[1].Kind())
		}
		return types.Bool(strings.Contains(string(hay), string(needle))), nil
	default:
		return nil, fmt.Errorf("unknown function %q", fn)
	}
}

func wantArgs(fn string, args []types.Value, n int) error {
	if len(args) != n {
		return fmt.Errorf("%s takes %d argument(s), got %d", fn, n, len(args))
	}
	return nil
}

func toBag(v types.Value) (*types.Bag, error) {
	if b, ok := v.(*types.Bag); ok {
		return b, nil
	}
	elems, err := types.Elements(v)
	if err != nil {
		return nil, err
	}
	return types.NewBag(elems...), nil
}

func aggregate(fn string, coll types.Value) (types.Value, error) {
	elems, err := types.Elements(coll)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", fn, err)
	}
	switch fn {
	case "sum", "avg":
		if len(elems) == 0 {
			if fn == "sum" {
				return types.Int(0), nil
			}
			return types.Null{}, nil
		}
		total := 0.0
		allInt := true
		for _, e := range elems {
			n, ok := types.Numeric(e)
			if !ok {
				return nil, fmt.Errorf("%s: non-numeric element %s", fn, e)
			}
			if e.Kind() != types.KindInt {
				allInt = false
			}
			total += n
		}
		if fn == "avg" {
			return types.Float(total / float64(len(elems))), nil
		}
		if allInt {
			return types.Int(int64(total)), nil
		}
		return types.Float(total), nil
	default: // min, max
		if len(elems) == 0 {
			return types.Null{}, nil
		}
		best := elems[0]
		for _, e := range elems[1:] {
			c, err := types.Compare(e, best)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", fn, err)
			}
			if (fn == "min" && c < 0) || (fn == "max" && c > 0) {
				best = e
			}
		}
		return best, nil
	}
}

func evalSelect(x *Select, env *Env, r Resolver) (types.Value, error) {
	var out []types.Value
	var loop func(i int, env *Env) error
	loop = func(i int, env *Env) error {
		if i == len(x.From) {
			if x.Where != nil {
				cond, err := Eval(x.Where, env, r)
				if err != nil {
					return err
				}
				keep, err := types.Truthy(cond)
				if err != nil {
					return err
				}
				if !keep {
					return nil
				}
			}
			v, err := Eval(x.Proj, env, r)
			if err != nil {
				return err
			}
			out = append(out, v)
			return nil
		}
		dom, err := Eval(x.From[i].Domain, env, r)
		if err != nil {
			return err
		}
		var loopErr error
		if err := types.RangeElements(dom, func(e types.Value) bool {
			loopErr = loop(i+1, env.Bind(x.From[i].Var, e))
			return loopErr == nil
		}); err != nil {
			return fmt.Errorf("from %s: %w", x.From[i].Var, err)
		}
		return loopErr
	}
	if err := loop(0, env); err != nil {
		return nil, err
	}
	result := types.NewBag(out...)
	if x.Distinct {
		result = types.BagDistinct(result)
	}
	return result, nil
}
