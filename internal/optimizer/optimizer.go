// Package optimizer implements DISCO's mediator query optimizer (paper §3):
// it normalizes logical plans, enumerates capability-checked pushdown
// alternatives, estimates each alternative's cost with the learned cost
// model, and picks the cheapest. It keeps no plans: the mediator's prepared
// cache holds each chosen plan with its report and flushes them when the
// catalog moves (§3.3's invalidation rule). Fleet health is not an input:
// plans depend only on the catalog and the cost history, and routing picks
// a live copy of each shard at execution time.
package optimizer

import (
	"fmt"
	"sort"
	"strings"

	"disco/internal/algebra"
	"disco/internal/capability"
	"disco/internal/costmodel"
)

// CapabilitySource supplies the wrapper grammar serving each repository —
// the optimizer's view of the submit-functionality call.
type CapabilitySource interface {
	GrammarFor(repo string) (*capability.Grammar, error)
}

// Candidate is one enumerated alternative with its estimated cost.
type Candidate struct {
	Options algebra.PushOptions
	Plan    algebra.Node
	Cost    Cost
	// pruned names the shards the candidate's variant pruned; Report.Pruned
	// reflects the chosen candidate so EXPLAIN never names a shard the
	// executed plan still reads.
	pruned []string
	// text is Plan's rendering, computed once: the dedup key and the sort's
	// tie-breaker.
	text string
}

// Report describes an optimization decision, for EXPLAIN-style output and
// the experiment harness.
type Report struct {
	Candidates []Candidate
	Chosen     int
	// Pruned lists the shards (extent@repo) partition pruning removed from
	// the plan: repositories whose declared hash slot or key range cannot
	// contain rows the query's predicates ask for. A partial answer's
	// residual never needs them, and EXPLAIN shows the DBA which sources a
	// query skips.
	Pruned []string
}

// Chosen returns the selected candidate.
func (r *Report) ChosenCandidate() Candidate { return r.Candidates[r.Chosen] }

// Optimizer searches for the cheapest capability-legal plan.
type Optimizer struct {
	caps    algebra.Capabilities
	history *costmodel.History
}

// New returns an optimizer resolving wrapper grammars per repository.
func New(caps CapabilitySource, history *costmodel.History) *Optimizer {
	return NewWithCapabilities(capsAdapter{src: caps}, history)
}

// NewWithCapabilities returns an optimizer using a general capability
// oracle (the mediator supplies one that resolves wrappers per extent).
func NewWithCapabilities(caps algebra.Capabilities, history *costmodel.History) *Optimizer {
	return &Optimizer{caps: caps, history: history}
}

// capsAdapter implements algebra.Capabilities on top of a CapabilitySource.
type capsAdapter struct {
	src CapabilitySource
}

// Accepts implements algebra.Capabilities.
func (c capsAdapter) Accepts(repo string, expr algebra.Node) bool {
	g, err := c.src.GrammarFor(repo)
	if err != nil || g == nil {
		return false
	}
	return g.AcceptsExpr(expr)
}

// pushCombos is the enumerated search space: which operator classes to
// offer each wrapper. Grammar checks then decide per-submit whether the
// offer lands.
var pushCombos = []algebra.PushOptions{
	{},
	{Select: true},
	{Project: true},
	{Select: true, Project: true},
	{Select: true, Join: true},
	{Select: true, Project: true, Join: true},
}

// Optimize returns the cheapest plan for the (already compiled) logical
// plan, with the report of every candidate it weighed.
func (o *Optimizer) Optimize(plan algebra.Node) (algebra.Node, *Report) {
	norm := algebra.Normalize(plan)

	// Placement-aware passes: partition pruning removes shards the
	// predicates provably exclude (re-normalizing collapses the emptied
	// union branches), then the partition-wise variant — when a join's two
	// sides are co-partitioned on the join attribute — competes with the
	// all-shards join under the cost model's max-of-survivors punion rule.
	// The partition-wise rewrite is itself pruned again: splitting a join
	// per shard lets normalization push single-side predicates into the
	// shard branches, where they can exclude further shards.
	type variant struct {
		plan   algebra.Node
		pruned []string
	}
	pruned, prunedShards := pruneFixpoint(norm)
	variants := []variant{{plan: pruned, pruned: prunedShards}}
	if pw, dropped := algebra.PartitionWiseJoins(pruned); !algebra.Equal(pw, pruned) {
		pw, pwShards := pruneFixpoint(algebra.Normalize(pw))
		all := mergeSorted(mergeSorted(prunedShards, dropped), pwShards)
		variants = append(variants, variant{plan: pw, pruned: all})
	}

	seen := map[string]bool{}
	report := &Report{}
	for _, v := range variants {
		for _, opt := range pushCombos {
			candidate := algebra.Push(v.plan, o.caps, opt)
			s := candidate.String()
			if seen[s] {
				continue
			}
			seen[s] = true
			report.Candidates = append(report.Candidates, Candidate{
				Options: opt,
				Plan:    candidate,
				Cost:    o.estimate(candidate),
				pruned:  v.pruned,
				text:    s,
			})
		}
	}
	// Deterministic choice: lowest total cost, ties broken by most-pushed
	// (fewest mediator-side operators, i.e. shortest plan string), then by
	// string order.
	sort.SliceStable(report.Candidates, func(i, j int) bool {
		ci, cj := report.Candidates[i], report.Candidates[j]
		if ci.Cost.Total != cj.Cost.Total {
			return ci.Cost.Total < cj.Cost.Total
		}
		si, sj := ci.text, cj.text
		if len(si) != len(sj) {
			return len(si) < len(sj)
		}
		return si < sj
	})
	report.Chosen = 0
	report.Pruned = report.Candidates[0].pruned
	return report.Candidates[0].Plan, report
}

// pruneFixpoint alternates partition pruning and normalization until the
// plan is stable: dropping an emptied branch can expose new select-over-
// branch shapes (and vice versa).
func pruneFixpoint(n algebra.Node) (algebra.Node, []string) {
	var pruned []string
	for {
		next, names := algebra.PrunePartitions(n)
		if len(names) == 0 {
			return n, pruned
		}
		pruned = mergeSorted(pruned, names)
		n = algebra.Normalize(next)
	}
}

// mergeSorted merges two sorted string slices, dropping duplicates.
func mergeSorted(a, b []string) []string {
	out := make([]string, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// String renders a report for EXPLAIN output.
func (r *Report) String() string {
	out := ""
	if len(r.Pruned) > 0 {
		out = fmt.Sprintf("pruned shards: %s\n", strings.Join(r.Pruned, ", "))
	}
	for i, c := range r.Candidates {
		marker := "  "
		if i == r.Chosen {
			marker = "=>"
		}
		out += fmt.Sprintf("%s cost=%.3f net=%.0fvals %s\n", marker, c.Cost.Total, c.Cost.TransferValues, c.Plan)
	}
	return out
}
