package physical

import (
	"context"
	"fmt"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/types"
)

// Plan is a runnable physical plan: the operator tree plus the exec
// operators it contains, indexed by their logical submit nodes so partial
// evaluation can match outcomes back to the logical plan.
type Plan struct {
	Logical algebra.Node
	Root    Operator
	// Scalar is true when the plan produces a single value (aggregate or
	// generic eval) rather than a bag.
	Scalar bool
	// Execs maps each logical submit node to its exec operator.
	Execs map[*algebra.Submit]*Exec
	// gated marks execs owned by a scatter-gather operator: Run must not
	// pre-start them, or the operator's concurrency bound would be moot.
	gated map[*Exec]bool
}

// Build translates a logical plan into a physical plan by the
// implementation rules of §3.3: submit becomes exec, union becomes mkunion,
// equi-joins become hash joins, everything else nested loops and
// element-wise operators.
func Build(logical algebra.Node, rt *Runtime) (*Plan, error) {
	p := &Plan{Logical: logical, Execs: make(map[*algebra.Submit]*Exec), gated: make(map[*Exec]bool)}
	root, err := p.build(logical, rt)
	if err != nil {
		return nil, err
	}
	p.Root = root
	switch logical.(type) {
	case *algebra.Agg, *algebra.Eval:
		p.Scalar = true
	}
	return p, nil
}

func (p *Plan) build(n algebra.Node, rt *Runtime) (Operator, error) {
	switch x := n.(type) {
	case *algebra.Const:
		return &ConstScan{Bag: x.Data}, nil
	case *algebra.Submit:
		if rt == nil || rt.Submit == nil {
			return nil, fmt.Errorf("physical: no submitter for %s", x)
		}
		e := NewExec(x.Repo, x.Input, rt)
		p.Execs[x] = e
		return e, nil
	case *algebra.Get:
		if rt == nil || rt.Collections == nil {
			return nil, fmt.Errorf("physical: get(%s) outside submit", x.Ref.Extent)
		}
		return &CollScan{Cols: rt.Collections, Name: x.Ref.Extent}, nil
	case *algebra.Eval:
		return &EvalScan{Expr: x.Expr, rt: rt}, nil
	case *algebra.Union:
		if x.Par && len(x.Inputs) > 1 {
			return p.buildScatterGather(x, false, rt)
		}
		inputs := make([]Operator, len(x.Inputs))
		scalar := make([]bool, len(x.Inputs))
		for i, in := range x.Inputs {
			op, err := p.build(in, rt)
			if err != nil {
				return nil, err
			}
			inputs[i] = op
			switch in.(type) {
			case *algebra.Agg, *algebra.Eval:
				scalar[i] = true
			}
		}
		return &MkUnion{Inputs: inputs, scalarInput: scalar}, nil
	case *algebra.Bind:
		in, err := p.build(x.Input, rt)
		if err != nil {
			return nil, err
		}
		return &MkBind{Var: x.Var, Input: in}, nil
	case *algebra.Select:
		in, err := p.build(x.Input, rt)
		if err != nil {
			return nil, err
		}
		return &MkSelect{Pred: x.Pred, Input: in, rt: rt}, nil
	case *algebra.Project:
		in, err := p.build(x.Input, rt)
		if err != nil {
			return nil, err
		}
		op := &MkProj{Cols: x.Cols, Input: in, rt: rt}
		if rt != nil && rt.Programs != nil {
			// The constructor expression is synthesized fresh per build, so
			// cache its program under the stable logical Project node —
			// otherwise every execution of a prepared plan would miss (and
			// grow) the cache.
			prog, err := rt.Programs.GetKeyed(x, func() oql.Expr { return algebra.ProjCtor(x.Cols) })
			if err != nil {
				return nil, err
			}
			op.ev.prog = prog
		}
		return op, nil
	case *algebra.Map:
		in, err := p.build(x.Input, rt)
		if err != nil {
			return nil, err
		}
		return &MkMap{Expr: x.Expr, Input: in, rt: rt}, nil
	case *algebra.Join:
		return p.buildJoin(x, rt)
	case *algebra.Nest:
		in, err := p.build(x.Input, rt)
		if err != nil {
			return nil, err
		}
		return &MkNest{Groups: x.Groups, Input: in}, nil
	case *algebra.Depend:
		in, err := p.build(x.Input, rt)
		if err != nil {
			return nil, err
		}
		return &MkDepend{Var: x.Var, Domain: x.Domain, Input: in, rt: rt}, nil
	case *algebra.Distinct:
		// distinct over a partition fan-out fuses into the merge: duplicates
		// are dropped across shard streams as they arrive.
		if u, ok := x.Input.(*algebra.Union); ok && u.Par && len(u.Inputs) > 1 {
			return p.buildScatterGather(u, true, rt)
		}
		in, err := p.build(x.Input, rt)
		if err != nil {
			return nil, err
		}
		return &MkDistinct{Input: in}, nil
	case *algebra.Flatten:
		in, err := p.build(x.Input, rt)
		if err != nil {
			return nil, err
		}
		return &MkFlatten{Input: in}, nil
	case *algebra.Agg:
		in, err := p.build(x.Input, rt)
		if err != nil {
			return nil, err
		}
		return &MkAgg{Fn: x.Fn, Input: in}, nil
	default:
		return nil, fmt.Errorf("physical: no implementation rule for %T", n)
	}
}

// buildScatterGather translates a parallel (partition fan-out) union into
// the scatter-gather merge operator, marking the branch execs as gated so
// Run leaves their launch to the operator's concurrency bound.
func (p *Plan) buildScatterGather(u *algebra.Union, distinct bool, rt *Runtime) (Operator, error) {
	branches := make([]Operator, len(u.Inputs))
	branchExecs := make([][]*Exec, len(u.Inputs))
	for i, in := range u.Inputs {
		op, err := p.build(in, rt)
		if err != nil {
			return nil, err
		}
		branches[i] = op
		algebra.Walk(in, func(n algebra.Node) {
			if sub, ok := n.(*algebra.Submit); ok {
				if e := p.Execs[sub]; e != nil {
					p.gated[e] = true
					branchExecs[i] = append(branchExecs[i], e)
				}
			}
		})
	}
	maxPar := 0
	if rt != nil {
		maxPar = rt.MaxFanout
	}
	return &ScatterGather{Branches: branches, BranchExecs: branchExecs, MaxParallel: maxPar, Distinct: distinct}, nil
}

// buildJoin picks hash join for equi-predicates and nested loops otherwise.
func (p *Plan) buildJoin(x *algebra.Join, rt *Runtime) (Operator, error) {
	l, err := p.build(x.L, rt)
	if err != nil {
		return nil, err
	}
	r, err := p.build(x.R, rt)
	if err != nil {
		return nil, err
	}
	if x.Pred != nil {
		lVars := toSet(algebra.EnvVars(x.L))
		rVars := toSet(algebra.EnvVars(x.R))
		if len(lVars) > 0 && len(rVars) > 0 {
			if lk, rk, residual, ok := equiKey(x.Pred, lVars, rVars); ok {
				return &HashJoin{L: l, R: r, LKey: lk, RKey: rk, Residual: residual, rt: rt}, nil
			}
		}
	}
	return &NLJoin{L: l, R: r, Pred: x.Pred, rt: rt}, nil
}

func toSet(names []string) map[string]bool {
	set := make(map[string]bool, len(names))
	for _, n := range names {
		set[n] = true
	}
	return set
}

// Run executes the plan. All exec calls launch in parallel first (§4);
// the context's deadline bounds them, and a source that fails to answer
// surfaces as an UnavailableError from the draining pass. Execs gated by a
// scatter-gather operator launch under its concurrency bound instead.
func (p *Plan) Run(ctx context.Context) (types.Value, error) {
	for _, e := range p.Execs {
		if p.gated[e] {
			continue
		}
		e.Start(ctx)
	}
	elems, err := Drain(ctx, p.Root)
	if err != nil {
		return nil, err
	}
	if p.Scalar {
		if len(elems) != 1 {
			return nil, fmt.Errorf("physical: scalar plan produced %d values", len(elems))
		}
		return elems[0], nil
	}
	return types.NewBag(elems...), nil
}

// RunLocal builds and runs a remote-free plan whose get leaves scan cols: the
// entry point of everything that executes plans below the wire — a source's
// SQL, a wrapper that implements the operators itself, residual folding
// (which holds no collections and passes nil).
func RunLocal(ctx context.Context, plan algebra.Node, cols algebra.Collections) (types.Value, error) {
	p, err := Build(plan, &Runtime{Collections: cols})
	if err != nil {
		return nil, err
	}
	return p.Run(ctx)
}

// Outcome is the result of one exec call.
type Outcome struct {
	Bag *types.Bag
	Err error
}

// Outcomes waits for every exec call to finish (each respects the context
// deadline it was started with) and returns their results keyed by logical
// submit node. Partial evaluation substitutes the successful ones into the
// logical plan and leaves the rest as the residual query.
func (p *Plan) Outcomes() map[*algebra.Submit]Outcome {
	out := make(map[*algebra.Submit]Outcome, len(p.Execs))
	for sub, e := range p.Execs {
		out[sub] = e.Outcome()
	}
	return out
}
