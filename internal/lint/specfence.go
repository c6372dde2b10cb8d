package lint

import (
	"go/ast"
	"path/filepath"
)

// SpecFence keeps the two executable specifications out of production.
// algebra.Interp (plans) and oql.Eval (expressions) are the references the
// differential and fuzz tests compare the real engines against; until PR 13
// both also served traffic — Interp ran every query at every source, inside
// the CSV wrapper and inside residual folding, oql.Eval ran deletes and
// view resolution — so the system had two executors whose agreement (§3.2)
// was a hope, and context handling had to be built twice. Production runs
// internal/physical and compiled programs (oql.Compile); a non-test file
// that reaches for a specification is re-opening that second path. The
// defining files are exempt: interp.go is the plan-level specification and
// may call the expression-level one.
var SpecFence = &Analyzer{
	Name: "specfence",
	Doc: "flags non-test references to algebra.Interp and calls of oql.Eval: they are executable specifications for tests; " +
		"production runs physical.RunLocal / Plan.Run and compiled programs (oql.Compile)",
	Run: runSpecFence,
}

const (
	algebraPath = "disco/internal/algebra"
	oqlPath     = "disco/internal/oql"
	evalMsg     = "oql.Eval is the executable specification, called only from tests; " +
		"compile the expression once (oql.Compile) and evaluate the program"
)

func runSpecFence(pass *Pass) error {
	for _, f := range pass.Files {
		name := filepath.Base(pass.Fset.Position(f.Pos()).Filename)
		if (pass.Path == algebraPath && name == "interp.go") || (pass.Path == oqlPath && name == "eval.go") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				switch {
				case isPkgCall(x, "algebra", "Interp"):
					pass.Reportf(x.Pos(), "algebra.Interp is the executable specification, called only from tests; "+
						"run plans with physical.RunLocal (or a built physical.Plan)")
				case isPkgCall(x, "oql", "Eval"):
					pass.Reportf(x.Pos(), evalMsg)
				}
			case *ast.Ident:
				// Inside package algebra the reference is unqualified.
				if pass.Path == algebraPath && x.Name == "Interp" {
					pass.Reportf(x.Pos(), "Interp is the executable specification, called only from tests; "+
						"only interp.go may mention it outside them")
				}
			case *ast.CallExpr:
				// Inside package oql the call is unqualified.
				if bare, ok := x.Fun.(*ast.Ident); ok && pass.Path == oqlPath && bare.Name == "Eval" {
					pass.Reportf(x.Pos(), evalMsg)
				}
			}
			return true
		})
	}
	return nil
}
