package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Env       env                        `json:"env"`
	Workloads map[string]*workloadResult `json:"workloads"`
	// Claim is always null here: this benchmark defines the names later
	// changes claim against and claims nothing itself.
	Claim *string `json:"claim"`
}

func readResult(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r resultFile
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// Verdicts of one workload x metric row.
const (
	better     = "better"
	same       = "same"
	worse      = "worse"
	unresolved = "unresolved"
)

// verdict compares two medians of one end-to-end metric. The change is
// the new median's distance from the old as a share of the old, signed so
// that positive is worse. A row whose windows disagree by more than the
// bound, on either side, cannot resolve a difference of that size.
func verdict(m specMetric, old, cur summary) string {
	if old.spread() > m.Bound || cur.spread() > m.Bound {
		return unresolved
	}
	change := (cur.Median - old.Median) / old.Median
	if m.Better == "higher" {
		change = -change
	}
	switch {
	case change > m.Bound:
		return worse
	case change < -m.Bound:
		return better
	}
	return same
}

// exactVerdict gates a count that must repeat: any difference is worse.
func exactVerdict(old, cur float64) string {
	if old == cur {
		return same
	}
	return worse
}

// compare prints one row per workload x end-to-end metric, then the two
// exact gates, and reports whether any row is worse.
func compare(out io.Writer, s *spec, old, cur *resultFile) (anyWorse bool) {
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\told\tnew\tnew/old\tbound\tverdict")
	row := func(workload, metric, unit string, o, n float64, bound, v string) {
		ratio := "-"
		if o != 0 {
			ratio = fmt.Sprintf("%.3f (base %.4g)", n/o, o)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g\t%.4g\t%s\t%s\t%s\n", workload, metric, unit, o, n, ratio, bound, v)
		if v == worse {
			anyWorse = true
		}
	}
	names := make([]string, 0, len(old.Workloads))
	for name := range old.Workloads {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		o, n := old.Workloads[name], cur.Workloads[name]
		if n == nil {
			fmt.Fprintf(tw, "%s\t-\t-\t-\t-\t-\t-\t%s (missing from the new file)\n", name, worse)
			anyWorse = true
			continue
		}
		for _, m := range s.EndToEnd {
			was, ok1 := o.EndToEnd[m.Name]
			is, ok2 := n.EndToEnd[m.Name]
			if !ok1 || !ok2 {
				continue
			}
			row(name, m.Name, m.Unit, was.Median, is.Median, fmt.Sprintf("%.2f", m.Bound), verdict(m, was, is))
		}
		// failed_share must be 0 on a healthy fleet, so equal is not enough.
		fv := exactVerdict(o.FailedShare, n.FailedShare)
		if n.FailedShare != 0 {
			fv = worse
		}
		row(name, "failed_share", "ratio", o.FailedShare, n.FailedShare, "exact", fv)
		const submits = "core.submits_per_query"
		if was, ok := o.PerLayer[submits]; ok {
			if is, ok := n.PerLayer[submits]; ok {
				row(name, submits, was.Unit, was.Value, is.Value, "exact", exactVerdict(was.Value, is.Value))
			}
		}
	}
	tw.Flush()
	return anyWorse
}

func runCompare(out io.Writer, s *spec, oldPath, newPath string) (anyWorse bool, err error) {
	old, err := readResult(oldPath)
	if err != nil {
		return false, err
	}
	cur, err := readResult(newPath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(out, "old: %s  (%s)\nnew: %s  (%s)\n", oldPath, old.Env, newPath, cur.Env)
	return compare(out, s, old, cur), nil
}

func writeResult(path string, r *resultFile) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
