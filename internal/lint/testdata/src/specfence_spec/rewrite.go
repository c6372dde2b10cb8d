// Fixture, analyzed as package disco/internal/algebra: every other
// non-test file of the defining package is fenced like the rest of the tree.
package fixture

import (
	"disco/internal/oql"
	"disco/internal/types"
)

func foldConstant(e oql.Expr) (types.Value, error) {
	in := new(Interp) // want `Interp is the executable specification`
	spec := oql.Eval  // want `oql.Eval is the executable specification`
	return spec(e, nil, in.Resolver)
}
