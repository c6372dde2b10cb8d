package wrapper

import (
	"context"
	"fmt"
	"strings"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/oql"
	"disco/internal/types"
)

// SQL is the wrapper for relational sources (the paper's WrapperPostgres).
// By default it supports the full operator set with composition and
// translates logical expressions into the RelStore SQL dialect; a
// restricted operator set can be declared to model weaker servers (the
// capability sweep in the experiments uses this).
type SQL struct {
	q Querier
	g *capability.Grammar
}

// sqlGrammar is NewSQL's grammar, built once and shared by every default
// SQL wrapper: the full relational operator set, less bag union (the
// relational engine's dialect has none) and arithmetic (which does not
// appear in the dialect's predicates).
var sqlGrammar = func() *capability.Grammar {
	ops := capability.FullOpSet()
	ops.Union = false
	ops.Arithmetic = false
	return capability.Standard(ops)
}()

// NewSQL returns a SQL wrapper with the full relational operator set.
func NewSQL(q Querier) *SQL { return &SQL{q: q, g: sqlGrammar} }

// NewSQLWithOps returns a SQL wrapper advertising only the given operator
// set, building its grammar once here. The translator is unchanged — the
// grammar is the contract, and the optimizer never sends what the grammar
// rejects.
func NewSQLWithOps(q Querier, ops capability.OpSet) *SQL {
	return &SQL{q: q, g: capability.Standard(ops)}
}

// Grammar implements Wrapper. It returns the grammar built with the
// wrapper, the same value on every call; callers must not modify it.
func (w *SQL) Grammar() *capability.Grammar { return w.g }

// Execute implements Wrapper.
func (w *SQL) Execute(ctx context.Context, expr algebra.Node) (*types.Bag, error) {
	text, err := ToSQL(expr)
	if err != nil {
		return nil, err
	}
	return w.q.Query(ctx, text)
}

// ToSQL translates a logical expression into the SQL dialect. Exported for
// the wrapper tests and the documentation examples.
func ToSQL(expr algebra.Node) (string, error) {
	var b strings.Builder
	if err := sqlQuery(&b, expr); err != nil {
		return "", err
	}
	return b.String(), nil
}

// sqlQuery renders a node as a complete SELECT statement.
func sqlQuery(b *strings.Builder, n algebra.Node) error {
	distinct := false
	if d, ok := n.(*algebra.Distinct); ok {
		distinct = true
		n = d.Input
	}

	cols := "*"
	if p, ok := n.(*algebra.Project); ok {
		names := make([]string, len(p.Cols))
		for i, c := range p.Cols {
			id, ok := c.Expr.(*oql.Ident)
			if !ok || id.Star || id.Name != c.Name {
				return &UnsupportedError{Expr: n, Wrapper: "sql"}
			}
			names[i] = id.Name
		}
		cols = strings.Join(names, ", ")
		n = p.Input
	}

	var where oql.Expr
	if s, ok := n.(*algebra.Select); ok {
		where = s.Pred
		n = s.Input
	}

	b.WriteString("SELECT ")
	if distinct {
		b.WriteString("DISTINCT ")
	}
	b.WriteString(cols)
	b.WriteString(" FROM ")
	if err := sqlFrom(b, n); err != nil {
		return err
	}
	if where != nil {
		b.WriteString(" WHERE ")
		if err := sqlPred(b, where); err != nil {
			return err
		}
	}
	return nil
}

// sqlFrom renders the from-clause part: a table, a join, or a subquery.
func sqlFrom(b *strings.Builder, n algebra.Node) error {
	switch x := n.(type) {
	case *algebra.Get:
		b.WriteString(x.Ref.Extent)
		return nil
	case *algebra.Join:
		if err := sqlFrom(b, x.L); err != nil {
			return err
		}
		b.WriteString(" JOIN ")
		if err := sqlFrom(b, x.R); err != nil {
			return err
		}
		b.WriteString(" ON ")
		if x.Pred == nil {
			b.WriteString("TRUE = TRUE")
			return nil
		}
		return sqlPred(b, x.Pred)
	case *algebra.Project, *algebra.Select, *algebra.Distinct:
		b.WriteByte('(')
		if err := sqlQuery(b, x); err != nil {
			return err
		}
		b.WriteByte(')')
		return nil
	default:
		return &UnsupportedError{Expr: n, Wrapper: "sql"}
	}
}

func sqlPred(b *strings.Builder, e oql.Expr) error {
	switch x := e.(type) {
	case *oql.Ident:
		if x.Star {
			return fmt.Errorf("sql wrapper: star identifier in predicate")
		}
		b.WriteString(x.Name)
		return nil
	case *oql.Literal:
		return sqlLiteral(b, x.Val)
	case *oql.Unary:
		if x.Op != oql.OpNot {
			return fmt.Errorf("sql wrapper: unsupported unary operator")
		}
		b.WriteString("NOT (")
		if err := sqlPred(b, x.X); err != nil {
			return err
		}
		b.WriteByte(')')
		return nil
	case *oql.Binary:
		return sqlBinary(b, x)
	default:
		return fmt.Errorf("sql wrapper: unsupported predicate %s", e)
	}
}

func sqlBinary(b *strings.Builder, x *oql.Binary) error {
	if x.Op == oql.OpIn {
		lit, ok := x.R.(*oql.Literal)
		if !ok {
			return fmt.Errorf("sql wrapper: IN requires a literal list")
		}
		elems, err := types.Elements(lit.Val)
		if err != nil {
			return fmt.Errorf("sql wrapper: IN list: %w", err)
		}
		if err := sqlPred(b, x.L); err != nil {
			return err
		}
		b.WriteString(" IN (")
		for i, e := range elems {
			if i > 0 {
				b.WriteString(", ")
			}
			if err := sqlLiteral(b, e); err != nil {
				return err
			}
		}
		b.WriteByte(')')
		return nil
	}
	op, ok := sqlOps[x.Op]
	if !ok {
		return fmt.Errorf("sql wrapper: unsupported operator %s", x.Op)
	}
	// Connectives parenthesize both sides; comparisons take flat operands.
	if x.Op == oql.OpAnd || x.Op == oql.OpOr {
		b.WriteByte('(')
		if err := sqlPred(b, x.L); err != nil {
			return err
		}
		b.WriteString(") " + op + " (")
		if err := sqlPred(b, x.R); err != nil {
			return err
		}
		b.WriteByte(')')
		return nil
	}
	if err := sqlPred(b, x.L); err != nil {
		return err
	}
	b.WriteString(" " + op + " ")
	return sqlPred(b, x.R)
}

var sqlOps = map[oql.BinaryOp]string{
	oql.OpEq:  "=",
	oql.OpNe:  "<>",
	oql.OpLt:  "<",
	oql.OpLe:  "<=",
	oql.OpGt:  ">",
	oql.OpGe:  ">=",
	oql.OpAnd: "AND",
	oql.OpOr:  "OR",
}

func sqlLiteral(b *strings.Builder, v types.Value) error {
	switch x := v.(type) {
	case types.Int, types.Float:
		b.WriteString(v.String())
		return nil
	case types.Bool:
		if x {
			b.WriteString("TRUE")
		} else {
			b.WriteString("FALSE")
		}
		return nil
	case types.Str:
		b.WriteByte('\'')
		b.WriteString(strings.ReplaceAll(string(x), "'", "''"))
		b.WriteByte('\'')
		return nil
	default:
		return fmt.Errorf("sql wrapper: cannot encode %s literal", v.Kind())
	}
}
