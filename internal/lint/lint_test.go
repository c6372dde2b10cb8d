package lint_test

import (
	"path/filepath"
	"testing"

	"disco/internal/lint"
	"disco/internal/lint/analysistest"
)

// Each analyzer runs over its fixture package — positive fixtures per bug
// class, negative fixtures for the sanctioned shapes, and the justified
// allow-comment escapes — through the same RunPackage pipeline that
// cmd/disco-lint and CI use. The fixture import paths impersonate the
// packages the analyzers are scoped to, so the package filters are
// exercised too.

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestEOFIdentity(t *testing.T) {
	analysistest.Run(t, fixture("eofidentity"), "disco/internal/physical", lint.EOFIdentity)
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, fixture("ctxflow"), "disco/internal/core", lint.CtxFlow)
}

func TestGoTrack(t *testing.T) {
	analysistest.Run(t, fixture("gotrack"), "disco/internal/wire", lint.GoTrack)
}

func TestLockSend(t *testing.T) {
	analysistest.Run(t, fixture("locksend"), "disco/internal/core", lint.LockSend)
}

func TestTraceExplain(t *testing.T) {
	analysistest.Run(t, fixture("traceexplain"), "disco/internal/core", lint.TraceExplain)
}

func TestSpecFence(t *testing.T) {
	analysistest.Run(t, fixture("specfence"), "disco/internal/source", lint.SpecFence)
	// The defining package: interp.go exempt, its other files fenced.
	analysistest.Run(t, fixture("specfence_spec"), "disco/internal/algebra", lint.SpecFence)
}

// TestScoping pins the package filters: an analyzer scoped away from a
// package must not fire there, and eofidentity applies everywhere.
func TestScoping(t *testing.T) {
	cases := []struct {
		a    *lint.Analyzer
		path string
		want bool
	}{
		{lint.EOFIdentity, "disco/internal/oql", true},
		{lint.CtxFlow, "disco/internal/core", true},
		{lint.CtxFlow, "disco/internal/harness", true},
		{lint.CtxFlow, "disco/internal/odl", false},
		{lint.GoTrack, "disco/internal/wire", true},
		{lint.GoTrack, "disco/internal/harness", false},
		{lint.LockSend, "disco/internal/source", true},
		{lint.LockSend, "disco/internal/types", false},
		{lint.TraceExplain, "disco/internal/core", true},
		{lint.TraceExplain, "disco/internal/wire", false},
		{lint.SpecFence, "disco/cmd/disco", true},
	}
	for _, c := range cases {
		got := c.a.Match == nil || c.a.Match(c.path)
		if got != c.want {
			t.Errorf("%s.Match(%q) = %v, want %v", c.a.Name, c.path, got, c.want)
		}
	}
}

// TestByName pins the registry: every analyzer resolves by name, and the
// suite has the six invariants the PR series minted.
func TestByName(t *testing.T) {
	want := []string{"eofidentity", "ctxflow", "gotrack", "locksend", "traceexplain", "specfence"}
	all := lint.Analyzers()
	if len(all) != len(want) {
		t.Fatalf("suite has %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		if all[i].Name != name {
			t.Errorf("analyzer %d is %q, want %q", i, all[i].Name, name)
		}
		if lint.ByName(name) != all[i] {
			t.Errorf("ByName(%q) did not resolve", name)
		}
	}
	if lint.ByName("nope") != nil {
		t.Error("ByName of unknown name should be nil")
	}
}
