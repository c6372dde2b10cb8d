// Package costmodel implements DISCO's learned cost estimation for calls to
// data sources (paper §3.3). Heterogeneous sources do not export cost
// information, so the mediator records every exec call — the expression,
// the time taken and the amount of data returned — and estimates future
// calls from history:
//
//  1. an exact match (same expression) is estimated by smoothing the
//     recorded observations, keeping only a fixed number of them;
//  2. a close match (same expression shape, different constants — the
//     predicate-based-caching variant the paper cites) smooths over the
//     shape's observations;
//  3. with no history at all the default is time 0 and data 1, which makes
//     the optimizer push the maximum amount of computation to the source
//     and otherwise compare plans on mediator-side cost alone — exactly
//     the behaviour the paper derives.
package costmodel

import (
	"math"
	"sort"
	"sync"
	"time"

	"disco/internal/algebra"
	"disco/internal/oql"
)

// Basis says which rule produced an estimate.
type Basis uint8

// Estimation bases, from most to least informed.
const (
	BasisExact Basis = iota + 1
	BasisClose
	BasisDefault
)

// String returns the lowercase name of the basis.
func (b Basis) String() string {
	switch b {
	case BasisExact:
		return "exact"
	case BasisClose:
		return "close"
	default:
		return "default"
	}
}

// Estimate is a predicted cost for one exec call.
type Estimate struct {
	Time  time.Duration
	Rows  float64
	Basis Basis
}

// DefaultEstimate is the no-history estimate: zero time, one row.
func DefaultEstimate() Estimate {
	return Estimate{Time: 0, Rows: 1, Basis: BasisDefault}
}

type observation struct {
	elapsed time.Duration
	rows    int
}

// History records exec calls and produces estimates. It is safe for
// concurrent use.
type History struct {
	mu      sync.Mutex
	exact   map[string][]observation
	shape   map[string][]observation
	copies  map[string]*copyWindow
	maxKeep int
	alpha   float64
	window  int
}

// DefaultWindow is how many recent latencies the per-copy sliding window
// keeps for quantile estimation.
const DefaultWindow = 64

// copyWindow is one repository's sliding window of recent call latencies,
// across every expression served by that copy. Quantiles over it — not the
// smoothed mean — are what hedging and load balancing consult: a hedge
// trigger needs the tail (p99), and the tail of a smoothed mean is the
// mean.
type copyWindow struct {
	lat  []time.Duration // ring buffer, oldest overwritten first
	next int
}

func (w *copyWindow) add(d time.Duration, size int) {
	if len(w.lat) < size {
		w.lat = append(w.lat, d)
		return
	}
	w.lat[w.next] = d
	w.next = (w.next + 1) % len(w.lat)
}

// Option configures a History.
type Option func(*History)

// WithMaxKeep bounds how many exactly-matching observations are kept per
// signature ("only a fixed number of exactly matching calls are recorded").
func WithMaxKeep(n int) Option {
	return func(h *History) {
		if n > 0 {
			h.maxKeep = n
		}
	}
}

// WithAlpha sets the smoothing factor in (0, 1]; higher weights recent
// observations more.
func WithAlpha(a float64) Option {
	return func(h *History) {
		if a > 0 && a <= 1 {
			h.alpha = a
		}
	}
}

// WithWindow sets how many recent latencies the per-copy sliding window
// keeps for quantile estimation (default DefaultWindow).
func WithWindow(n int) Option {
	return func(h *History) {
		if n > 0 {
			h.window = n
		}
	}
}

// New returns an empty history. Defaults: 8 observations per signature,
// smoothing factor 0.5, DefaultWindow latencies per copy.
func New(opts ...Option) *History {
	h := &History{
		exact:   make(map[string][]observation),
		shape:   make(map[string][]observation),
		copies:  make(map[string]*copyWindow),
		maxKeep: 8,
		alpha:   0.5,
		window:  DefaultWindow,
	}
	for _, o := range opts {
		o(h)
	}
	return h
}

// Record stores the outcome of one exec call.
func (h *History) Record(repo string, expr algebra.Node, elapsed time.Duration, rows int) {
	ex := repo + "|" + expr.String()
	sh := repo + "|" + ShapeSignature(expr)
	obs := observation{elapsed: elapsed, rows: rows}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.exact[ex] = appendBounded(h.exact[ex], obs, h.maxKeep)
	h.shape[sh] = appendBounded(h.shape[sh], obs, h.maxKeep)
	w, ok := h.copies[repo]
	if !ok {
		w = &copyWindow{}
		h.copies[repo] = w
	}
	w.add(elapsed, h.window)
}

// Quantile returns the q-quantile (0 < q <= 1) of the copy's recent call
// latencies over the sliding window, across every expression the copy
// served. ok is false when the copy has no recorded calls.
func (h *History) Quantile(repo string, q float64) (time.Duration, bool) {
	h.mu.Lock()
	w, found := h.copies[repo]
	if !found || len(w.lat) == 0 {
		h.mu.Unlock()
		return 0, false
	}
	lats := append([]time.Duration(nil), w.lat...)
	h.mu.Unlock()
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	idx := int(math.Ceil(q*float64(len(lats)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(lats) {
		idx = len(lats) - 1
	}
	return lats[idx], true
}

func appendBounded(obs []observation, o observation, max int) []observation {
	obs = append(obs, o)
	if len(obs) > max {
		obs = obs[len(obs)-max:]
	}
	return obs
}

// Estimate predicts the cost of an exec call from history.
func (h *History) Estimate(repo string, expr algebra.Node) Estimate {
	var one [1]Estimate
	return h.EstimateCopies(expr, []string{repo}, one[:0])[0]
}

// EstimateCopies appends to dst the estimate of the same exec call at each
// of the given copies, in order. The expression and its shape are rendered
// once however many copies are asked about: the optimizer costs a
// replicated submit at every copy, and routing ranks every copy of a shard.
func (h *History) EstimateCopies(expr algebra.Node, repos []string, dst []Estimate) []Estimate {
	text := expr.String()
	shape := ShapeSignature(expr)
	var buf [256]byte
	key := buf[:0]
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, repo := range repos {
		key = append(append(append(key[:0], repo...), '|'), text...)
		if obs := h.exact[string(key)]; len(obs) > 0 {
			t, r := h.smooth(obs)
			dst = append(dst, Estimate{Time: t, Rows: r, Basis: BasisExact})
			continue
		}
		key = append(append(append(key[:0], repo...), '|'), shape...)
		if obs := h.shape[string(key)]; len(obs) > 0 {
			t, r := h.smooth(obs)
			dst = append(dst, Estimate{Time: t, Rows: r, Basis: BasisClose})
			continue
		}
		dst = append(dst, DefaultEstimate())
	}
	return dst
}

// smooth applies exponential smoothing, oldest first, so recent calls
// dominate: est = alpha*x_n + (1-alpha)*est_{n-1}.
func (h *History) smooth(obs []observation) (time.Duration, float64) {
	t := float64(obs[0].elapsed)
	r := float64(obs[0].rows)
	for _, o := range obs[1:] {
		t = h.alpha*float64(o.elapsed) + (1-h.alpha)*t
		r = h.alpha*float64(o.rows) + (1-h.alpha)*r
	}
	return time.Duration(t), r
}

// Observations reports how many exact observations exist for an expression
// (used by the experiment harness).
func (h *History) Observations(repo string, expr algebra.Node) int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.exact[repo+"|"+expr.String()])
}

// ShapeSignature canonicalizes an expression by wildcarding every constant,
// so that selections differing only in comparison constants share a
// signature. This is the "close match" relation of §3.3.
func ShapeSignature(n algebra.Node) string {
	wild := algebra.Transform(n, func(m algebra.Node) algebra.Node {
		switch x := m.(type) {
		case *algebra.Select:
			return &algebra.Select{Pred: wildcard(x.Pred), Input: x.Input}
		case *algebra.Join:
			if x.Pred == nil {
				return x
			}
			return &algebra.Join{L: x.L, R: x.R, Pred: wildcard(x.Pred)}
		case *algebra.Project:
			cols := make([]algebra.Col, len(x.Cols))
			for i, c := range x.Cols {
				cols[i] = algebra.Col{Name: c.Name, Expr: wildcard(c.Expr)}
			}
			return &algebra.Project{Cols: cols, Input: x.Input}
		default:
			return m
		}
	})
	return wild.String()
}

// wildcard replaces literal constants with a placeholder identifier while
// preserving the operator structure (comparison operators must still match
// for a close match, per the paper).
func wildcard(e oql.Expr) oql.Expr {
	switch x := e.(type) {
	case *oql.Literal:
		return &oql.Ident{Name: "_const"}
	case *oql.Unary:
		return &oql.Unary{Op: x.Op, X: wildcard(x.X)}
	case *oql.Binary:
		return &oql.Binary{Op: x.Op, L: wildcard(x.L), R: wildcard(x.R)}
	default:
		return e
	}
}
