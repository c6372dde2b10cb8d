// Fixture, analyzed as package disco/internal/algebra: the file that
// defines the plan-level specification is exempt — it may mention Interp
// and use the expression-level specification.
package fixture

import (
	"disco/internal/oql"
	"disco/internal/types"
)

type Interp struct{ Resolver oql.Resolver }

func (in *Interp) run(e oql.Expr) (types.Value, error) {
	spec := oql.Eval
	return spec(e, nil, in.Resolver)
}
