package costmodel

import (
	"fmt"
	"testing"
	"time"

	"disco/internal/algebra"
)

// specEstimate is the per-copy estimate as first written: it renders the
// expression and its shape for the one repository asked about.
// EstimateCopies renders them once for a whole copy list and is held to it.
func specEstimate(h *History, repo string, expr algebra.Node) Estimate {
	ex := repo + "|" + expr.String()
	sh := repo + "|" + ShapeSignature(expr)
	h.mu.Lock()
	defer h.mu.Unlock()
	if obs := h.exact[ex]; len(obs) > 0 {
		t, r := h.smooth(obs)
		return Estimate{Time: t, Rows: r, Basis: BasisExact}
	}
	if obs := h.shape[sh]; len(obs) > 0 {
		t, r := h.smooth(obs)
		return Estimate{Time: t, Rows: r, Basis: BasisClose}
	}
	return DefaultEstimate()
}

// TestEstimateCopiesMatchesSpec: for every copy of a list — one with an
// exact match, one with only a close match, one with no history — the
// one-rendering estimate equals the per-copy specification, in list order,
// and so does Estimate of each copy alone.
func TestEstimateCopiesMatchesSpec(t *testing.T) {
	h := New()
	recorded := sel(t, `a > 10`, get("t"))
	h.Record("exact", recorded, 40*time.Millisecond, 12)
	h.Record("exact", recorded, 20*time.Millisecond, 6)
	h.Record("close", sel(t, `a > 99`, get("t")), 30*time.Millisecond, 9)
	h.Record("close", sel(t, `a > 7`, get("t")), 10*time.Millisecond, 3)
	pred := `a > 0`
	for i := 1; i <= 40; i++ {
		pred += fmt.Sprintf(` and a <> %d`, i)
	}
	long := sel(t, pred, get("t"))
	h.Record("exact", long, 5*time.Millisecond, 1)
	if len(long.String()) <= 256 {
		t.Fatalf("the long expression renders in %d bytes; it must outgrow EstimateCopies' key buffer", len(long.String()))
	}

	cases := []struct {
		name  string
		expr  algebra.Node
		repos []string
		bases []Basis
	}{
		{"exact close default", recorded, []string{"exact", "close", "none"}, []Basis{BasisExact, BasisClose, BasisDefault}},
		{"default first", recorded, []string{"none", "close", "exact"}, []Basis{BasisDefault, BasisClose, BasisExact}},
		{"close only", sel(t, `a > 55`, get("t")), []string{"close", "exact"}, []Basis{BasisClose, BasisClose}},
		{"other operator", sel(t, `a = 10`, get("t")), []string{"exact", "close"}, []Basis{BasisDefault, BasisDefault}},
		{"one copy", recorded, []string{"exact"}, []Basis{BasisExact}},
		{"repeated copy", recorded, []string{"close", "close"}, []Basis{BasisClose, BasisClose}},
		{"key past the stack buffer", long, []string{"exact", "none"}, []Basis{BasisExact, BasisDefault}},
		{"no copies", recorded, nil, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := h.EstimateCopies(tc.expr, tc.repos, nil)
			if len(got) != len(tc.repos) {
				t.Fatalf("%d estimates for %d copies", len(got), len(tc.repos))
			}
			for i, repo := range tc.repos {
				want := specEstimate(h, repo, tc.expr)
				if got[i] != want {
					t.Errorf("copy %s: EstimateCopies = %+v, spec = %+v", repo, got[i], want)
				}
				if got[i].Basis != tc.bases[i] {
					t.Errorf("copy %s: basis %s, want %s", repo, got[i].Basis, tc.bases[i])
				}
				if one := h.Estimate(repo, tc.expr); one != want {
					t.Errorf("copy %s: Estimate = %+v, spec = %+v", repo, one, want)
				}
			}
		})
	}
}

// TestEstimateCopiesAppends: the estimates land after dst's existing
// elements, so callers can reuse a buffer.
func TestEstimateCopiesAppends(t *testing.T) {
	h := New()
	prev := Estimate{Time: time.Second, Rows: 7, Basis: BasisExact}
	got := h.EstimateCopies(get("t"), []string{"r0"}, []Estimate{prev})
	if len(got) != 2 || got[0] != prev || got[1] != DefaultEstimate() {
		t.Errorf("EstimateCopies appended %+v", got)
	}
}
