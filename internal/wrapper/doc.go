package wrapper

import (
	"context"
	"fmt"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/oql"
	"disco/internal/types"
)

// Doc wraps a keyword-search document source (DocStore). Its functionality
// is deliberately weak — get, plus a select restricted to a single equality
// comparison, with no composition beyond select-over-get — matching the
// WAIS-class servers that motivate the capability grammar mechanism.
type Doc struct {
	q Querier
}

// NewDoc returns a wrapper over a document-store querier.
func NewDoc(q Querier) *Doc { return &Doc{q: q} }

// docGrammarText is hand-written in the paper's notation: the select
// production admits exactly one equality comparison or one substring
// containment, and does not compose.
const docGrammarText = `
a :- b
a :- c
b :- get OPEN SOURCE CLOSE
c :- select OPEN p COMMA b CLOSE
p :- EQ OPEN ATTRIBUTE COMMA CONST CLOSE
p :- CONTAINS OPEN ATTRIBUTE COMMA CONST CLOSE
`

// docGrammar is docGrammarText parsed once, at package initialization.
var docGrammar = func() *capability.Grammar {
	g, err := capability.Parse(docGrammarText)
	if err != nil {
		// The grammar is a compile-time constant; failing to parse it is a
		// programming error.
		panic(fmt.Sprintf("wrapper: doc grammar: %v", err))
	}
	return g
}()

// Grammar implements Wrapper. It returns the grammar parsed once from
// docGrammarText; callers must not modify it.
func (*Doc) Grammar() *capability.Grammar { return docGrammar }

// Execute implements Wrapper.
func (w *Doc) Execute(ctx context.Context, expr algebra.Node) (*types.Bag, error) {
	switch x := expr.(type) {
	case *algebra.Get:
		return w.q.Query(ctx, "SCAN "+x.Ref.Extent)
	case *algebra.Select:
		get, ok := x.Input.(*algebra.Get)
		if !ok {
			return nil, &UnsupportedError{Expr: expr, Wrapper: "doc"}
		}
		if field, value, ok := equalityParts(x.Pred); ok {
			return w.q.Query(ctx, fmt.Sprintf("MATCH %s %s '%s'", get.Ref.Extent, field, value))
		}
		if field, value, ok := containsParts(x.Pred); ok {
			return w.q.Query(ctx, fmt.Sprintf("GREP %s %s '%s'", get.Ref.Extent, field, value))
		}
		return nil, &UnsupportedError{Expr: expr, Wrapper: "doc"}
	default:
		return nil, &UnsupportedError{Expr: expr, Wrapper: "doc"}
	}
}

// containsParts deconstructs contains(attr, "text").
func containsParts(pred oql.Expr) (field, value string, ok bool) {
	call, isCall := pred.(*oql.Call)
	if !isCall || call.Fn != "contains" || len(call.Args) != 2 {
		return "", "", false
	}
	id, isIdent := call.Args[0].(*oql.Ident)
	lit, isLit := call.Args[1].(*oql.Literal)
	if !isIdent || !isLit || id.Star {
		return "", "", false
	}
	s, isStr := lit.Val.(types.Str)
	if !isStr {
		return "", "", false
	}
	return id.Name, string(s), true
}

// equalityParts deconstructs attr = literal (either side order).
func equalityParts(pred oql.Expr) (field, value string, ok bool) {
	bin, isBin := pred.(*oql.Binary)
	if !isBin || bin.Op != oql.OpEq {
		return "", "", false
	}
	l, r := bin.L, bin.R
	id, isIdent := l.(*oql.Ident)
	lit, isLit := r.(*oql.Literal)
	if !isIdent || !isLit {
		// Try the mirrored orientation const = attr.
		id, isIdent = r.(*oql.Ident)
		lit, isLit = l.(*oql.Literal)
		if !isIdent || !isLit {
			return "", "", false
		}
	}
	if id.Star {
		return "", "", false
	}
	switch v := lit.Val.(type) {
	case types.Str:
		return id.Name, string(v), true
	case types.Int, types.Float, types.Bool:
		return id.Name, lit.Val.String(), true
	default:
		return "", "", false
	}
}
