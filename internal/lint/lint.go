// Package lint implements disco's project-specific static analyzers: the
// invariant suite that mechanizes the bug classes the seeded chaos soaks
// kept rediscovering (silent stream truncation, detached contexts,
// untracked goroutines, blocking channel work under a mutex, and
// Trace/renderer drift) and fences off the design mistakes later PRs
// removed (a second, test-only executor serving traffic). Each analyzer is documented with the historical
// bug that motivated it; the suite runs over ./... via cmd/disco-lint and
// gates `make lint` / `make check` and CI.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis
// (Analyzer, Pass, Reportf, analysistest-style fixtures) without the
// dependency: the module is deliberately dependency-free, so the suite is
// built on the standard library's go/ast and go/parser alone and analyzers
// port to the upstream driver mechanically if the dependency ever lands.
// Analysis is syntactic — no type checking — which is exactly enough for
// the invariants here (they are all about lexical shape) and keeps a full
// ./... run in the tens of milliseconds.
//
// # Suppressing a finding
//
// A finding that is a genuine, deliberate exception is suppressed in
// place, never centrally, with a justified allow comment on the flagged
// line or the line above it:
//
//	//lint:allow <analyzer> <why this site is a legitimate exception>
//
// The justification is mandatory: an allow comment without one is itself
// a finding. Unknown analyzer names in allow comments are findings too,
// so a typo cannot silently disarm the escape.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Diagnostic is one finding: a position and a message, tagged with the
// analyzer that produced it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Pass carries one package's syntax through one analyzer, mirroring
// analysis.Pass. Files holds the package's non-test files only: every
// invariant in the suite guards production code paths, and test files
// routinely (and legitimately) detach contexts, fire unsupervised
// goroutines, and classify errors.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Path     string // import path of the package under analysis

	diags   []Diagnostic
	drained map[string]bool // gotrack's per-package Done/Wait spine cache
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.diags = append(p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Analyzer is one invariant check, mirroring analysis.Analyzer plus a
// package filter: most of the suite's invariants are scoped to the
// serving-path packages they were minted in.
type Analyzer struct {
	Name string
	Doc  string
	// Match reports whether the analyzer applies to a package import
	// path. A nil Match applies everywhere.
	Match func(path string) bool
	Run   func(*Pass) error
}

// matchPrefixes builds a Match function accepting any package whose import
// path equals or descends from one of the given paths.
func matchPrefixes(paths ...string) func(string) bool {
	return func(p string) bool {
		for _, pre := range paths {
			if p == pre || strings.HasPrefix(p, pre+"/") {
				return true
			}
		}
		return false
	}
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		EOFIdentity,
		CtxFlow,
		GoTrack,
		LockSend,
		TraceExplain,
		SpecFence,
	}
}

// ByName resolves one analyzer, or nil.
func ByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// RunPackage runs every applicable analyzer over one parsed package and
// returns the findings that survive allow-comment filtering, sorted by
// position. Files must have been parsed with comments. This is the single
// entry point shared by cmd/disco-lint and the analysistest fixture
// runner, so fixtures exercise exactly the pipeline the CI gate runs.
func RunPackage(fset *token.FileSet, files []*ast.File, path string, analyzers []*Analyzer) ([]Diagnostic, error) {
	allows, diags := collectAllows(fset, files, analyzers)
	for _, a := range analyzers {
		if a.Match != nil && !a.Match(path) {
			continue
		}
		pass := &Pass{Analyzer: a, Fset: fset, Files: files, Path: path}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %w", a.Name, err)
		}
		for _, d := range pass.diags {
			if allows[allowKey{file: d.Pos.Filename, line: d.Pos.Line, analyzer: d.Analyzer}] ||
				allows[allowKey{file: d.Pos.Filename, line: d.Pos.Line - 1, analyzer: d.Analyzer}] {
				continue
			}
			diags = append(diags, d)
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Column != b.Column {
			return a.Column < b.Column
		}
		return diags[i].Analyzer < diags[j].Analyzer
	})
	return diags, nil
}

// allowKey addresses one allow comment's reach: findings by one analyzer
// on the comment's own line, or the line directly below it.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

const allowPrefix = "lint:allow"

// collectAllows indexes every //lint:allow comment and validates its
// shape: the analyzer must exist and the justification must be non-empty.
// Malformed allow comments are returned as findings so a typo cannot
// silently disarm an invariant.
func collectAllows(fset *token.FileSet, files []*ast.File, analyzers []*Analyzer) (map[allowKey]bool, []Diagnostic) {
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	allows := map[allowKey]bool{}
	var bad []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, allowPrefix) {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(strings.TrimPrefix(text, allowPrefix))
				// A nested comment marker ends the allow text (fixtures put
				// // want expectations on the same line).
				if i := strings.Index(rest, "//"); i >= 0 {
					rest = strings.TrimSpace(rest[:i])
				}
				name, why, _ := strings.Cut(rest, " ")
				switch {
				case !known[name]:
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "allow",
						Message: fmt.Sprintf("lint:allow names unknown analyzer %q", name)})
				case strings.TrimSpace(why) == "":
					bad = append(bad, Diagnostic{Pos: pos, Analyzer: "allow",
						Message: fmt.Sprintf("lint:allow %s needs a justification: //lint:allow %s <why this site is a legitimate exception>", name, name)})
				default:
					allows[allowKey{file: pos.Filename, line: pos.Line, analyzer: name}] = true
				}
			}
		}
	}
	return allows, bad
}
