// Fixture: production code reaching for the executable specifications,
// beside the sanctioned shapes that look similar. The offenders spell their
// references as new(...) and as function values, not as composite literals
// and direct calls, so that a grep of the tree for those two spellings — the
// quick form of this invariant — finds production offenders only.
package fixture

import (
	"context"

	"disco/internal/algebra"
	"disco/internal/oql"
	"disco/internal/physical"
	"disco/internal/types"
)

// runWithInterp is the retired source path: a second executor in production.
func runWithInterp(plan algebra.Node, cols algebra.Collections) (types.Value, error) {
	in := new(algebra.Interp) // want `algebra.Interp is the executable specification`
	in.Cols = cols
	return in.Run(plan)
}

// holdsInterp: a type reference is a reference.
type holdsInterp struct {
	in *algebra.Interp // want `algebra.Interp is the executable specification`
}

// treeWalk is the retired per-row path: tree-walking evaluation.
func treeWalk(e oql.Expr, env *oql.Env) (types.Value, error) {
	spec := oql.Eval // want `oql.Eval is the executable specification`
	return spec(e, env, oql.EmptyResolver)
}

// sanctioned shapes: the one executor, a compiled program's Eval method,
// and the algebra.Eval plan node, which only shares a name.
func sanctioned(ctx context.Context, plan algebra.Node, e oql.Expr) (types.Value, error) {
	if _, err := physical.RunLocal(ctx, plan, nil); err != nil {
		return nil, err
	}
	prog, err := oql.Compile(e)
	if err != nil {
		return nil, err
	}
	_ = &algebra.Eval{Expr: e}
	return prog.Eval(prog.NewEnv(nil))
}

// justified proves the allow escape.
func justified(e oql.Expr) (types.Value, error) {
	//lint:allow specfence fixture: a debugging aid that prints what the specification says
	spec := oql.Eval
	return spec(e, nil, oql.EmptyResolver)
}
