// Package partial implements DISCO's partial evaluation semantics (paper
// §4): when some data sources fail to respond before the evaluation
// deadline, the answer to a query is another query — a closed OQL
// expression combining the data that did arrive with a residual query over
// the unavailable sources, canonically
//
//	union(select y.name from y in person0 where y.salary > 10, bag("Sam"))
//
// Resubmitting the answer once the sources recover yields the full answer
// (assuming the sources are unchanged), and the user may equally reissue
// the original query.
package partial

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/physical"
	"disco/internal/types"
)

// Answer is the outcome of evaluating a query under partial-evaluation
// semantics.
type Answer struct {
	// Complete is true when every source answered; Value then holds the
	// answer.
	Complete bool
	Value    types.Value
	// Residual is the answer-as-query when Complete is false. It is a
	// legal OQL expression in the mediator's namespace.
	Residual oql.Expr
	// Unavailable lists the repositories that did not respond, sorted.
	Unavailable []string
	// Snapshot records the data versions of the collections whose data is
	// embedded in a partial answer, keyed by repository then collection.
	// The mediator's CheckFresh compares it against current versions — the
	// §4 staleness extension. Nil when sources do not track versions.
	Snapshot map[string]map[string]int64
}

// String renders the answer: the value if complete, the residual query
// otherwise.
func (a *Answer) String() string {
	if a.Complete {
		return a.Value.String()
	}
	return a.Residual.String()
}

// Evaluate runs a physical plan and applies the §4 semantics: a complete
// answer when all sources respond, an answer-as-query when some block, and
// a plain error for genuine failures (a source answering with an error is
// a failed query, not an unavailable source).
//
// ectx carries the §4 evaluation deadline and bounds the source calls; ctx
// is the caller's own context (ectx's parent). The residual folds under
// ctx: by the time there is a residual to build, the evaluation deadline
// has by definition passed, but a caller that walked away still stops it.
func Evaluate(ctx, ectx context.Context, p *physical.Plan) (*Answer, error) {
	v, err := p.Run(ectx)
	if err == nil {
		return &Answer{Complete: true, Value: v}, nil
	}
	var ue *physical.UnavailableError
	if !errors.As(err, &ue) {
		return nil, err
	}
	outcomes := p.Outcomes()
	downSet := map[string]bool{}
	for sub, o := range outcomes {
		if o.Err == nil {
			continue
		}
		var unavailable *physical.UnavailableError
		if !errors.As(o.Err, &unavailable) {
			// A real failure from an available source aborts the query.
			return nil, o.Err
		}
		downSet[sub.Repo] = true
	}
	residual, err := Residual(ctx, p.Logical, outcomes)
	if err != nil {
		return nil, fmt.Errorf("partial: build residual: %w", err)
	}
	down := make([]string, 0, len(downSet))
	for repo := range downSet {
		down = append(down, repo)
	}
	sort.Strings(down)
	return &Answer{Residual: residual, Unavailable: down}, nil
}

// Residual transforms a logical plan plus the per-submit outcomes into the
// answer-as-query: successful submits become data literals, every subtree
// free of unavailable sources evaluates to data, and the remainder converts
// back to OQL (the paper's "the physical expression is transformed back
// into a high level query").
func Residual(ctx context.Context, logical algebra.Node, outcomes map[*algebra.Submit]physical.Outcome) (oql.Expr, error) {
	// Step 1: substitute available results for their submit nodes.
	substituted := algebra.Transform(logical, func(n algebra.Node) algebra.Node {
		if sub, ok := n.(*algebra.Submit); ok {
			if o, found := outcomes[sub]; found && o.Err == nil {
				return &algebra.Const{Data: o.Bag}
			}
		}
		return n
	})
	// Step 2: evaluate every maximal subtree that no longer depends on a
	// remote call.
	collapsed, err := collapse(ctx, substituted)
	if err != nil {
		return nil, err
	}
	// Step 3: canonicalize unions — merge data branches into a single
	// trailing bag, the paper's union(query, data) form.
	canonical := algebra.Transform(collapsed, mergeUnionData)
	return algebra.ToOQL(canonical)
}

// collapse rewrites bottom-up, folding remote-free subtrees to constants.
func collapse(ctx context.Context, n algebra.Node) (algebra.Node, error) {
	switch n.(type) {
	case *algebra.Submit, *algebra.Eval:
		// A remaining submit is an unavailable source: its whole subtree
		// (including the get below it) stays symbolic.
		return n, nil
	}
	// Fold only subtrees whose output is raw data: collapsing an
	// env-struct producer (bind, nest, depend) to a constant would strip
	// the variable structure its parent operators reference.
	if !needsRemote(n) && len(algebra.EnvVars(n)) == 0 {
		if _, ok := n.(*algebra.Const); ok {
			return n, nil
		}
		v, err := physical.RunLocal(ctx, n, nil)
		if err != nil {
			return nil, err
		}
		b, ok := v.(*types.Bag)
		if !ok {
			// Scalar subtree (aggregate over available data): keep the
			// value as a one-element bag only if the context is a
			// collection; safer to re-express as OQL literal via Eval.
			return &algebra.Eval{Expr: &oql.Literal{Val: v}}, nil
		}
		return &algebra.Const{Data: b}, nil
	}
	children := n.Children()
	if len(children) == 0 {
		return n, nil
	}
	rebuilt := make([]algebra.Node, len(children))
	for i, c := range children {
		cc, err := collapse(ctx, c)
		if err != nil {
			return nil, err
		}
		rebuilt[i] = cc
	}
	return n.WithChildren(rebuilt), nil
}

// needsRemote reports whether evaluating the subtree could touch a data
// source: it still contains a submit, a generic eval (whose expression the
// mediator resolves against live extents), or an expression referencing
// names outside the variables its input binds (correlated subqueries).
func needsRemote(n algebra.Node) bool {
	remote := false
	algebra.Walk(n, func(m algebra.Node) {
		switch x := m.(type) {
		case *algebra.Submit, *algebra.Eval:
			remote = true
		case *algebra.Select:
			if referencesBeyondEnv(x.Pred, x.Input) {
				remote = true
			}
		case *algebra.Map:
			if referencesBeyondEnv(x.Expr, x.Input) {
				remote = true
			}
		case *algebra.Project:
			for _, c := range x.Cols {
				if referencesBeyondEnv(c.Expr, x.Input) {
					remote = true
				}
			}
		case *algebra.Join:
			if x.Pred != nil && referencesBeyondEnvJoin(x.Pred, x.L, x.R) {
				remote = true
			}
		case *algebra.Depend:
			if referencesBeyondEnv(x.Domain, x.Input) {
				remote = true
			}
		}
	})
	return remote
}

func referencesBeyondEnv(e oql.Expr, input algebra.Node) bool {
	env := map[string]bool{}
	for _, v := range algebra.EnvVars(input) {
		env[v] = true
	}
	if len(env) == 0 {
		// Raw input: element fields are source attributes.
		attrs, ok := algebra.OutputAttrs(input)
		if !ok {
			return true // unknown element shape: be conservative
		}
		for _, a := range attrs {
			env[a] = true
		}
	}
	for _, name := range oql.FreeNames(e) {
		if !env[name] {
			return true
		}
	}
	return false
}

func referencesBeyondEnvJoin(e oql.Expr, l, r algebra.Node) bool {
	env := map[string]bool{}
	for _, v := range algebra.EnvVars(l) {
		env[v] = true
	}
	for _, v := range algebra.EnvVars(r) {
		env[v] = true
	}
	for _, name := range oql.FreeNames(e) {
		if !env[name] {
			return true
		}
	}
	return false
}

// mergeUnionData merges the constant branches of a union into one trailing
// bag literal, producing the paper's canonical union(query..., data) shape.
func mergeUnionData(n algebra.Node) algebra.Node {
	u, ok := n.(*algebra.Union)
	if !ok {
		return n
	}
	var queries []algebra.Node
	var data []*types.Bag
	for _, in := range u.Inputs {
		if c, isConst := in.(*algebra.Const); isConst {
			data = append(data, c.Data)
			continue
		}
		queries = append(queries, in)
	}
	if len(data) <= 1 && len(queries)+len(data) == len(u.Inputs) && len(data) == 0 {
		return n // nothing to merge
	}
	merged := types.BagUnion(data...)
	switch {
	case len(queries) == 0:
		return &algebra.Const{Data: merged}
	case len(data) == 0:
		return n
	default:
		return &algebra.Union{Inputs: append(queries, &algebra.Const{Data: merged}), Par: u.Par}
	}
}
