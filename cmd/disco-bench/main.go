// Command disco-bench prints the experiment tables of internal/harness:
// the two paper figures run as living systems (F1, F2) and the experiments
// derived from the paper's claims (E1–E7). The repository's gating
// benchmark is a different program, bench/ (see bench/README.md).
//
// Usage:
//
//	disco-bench              # run everything
//	disco-bench -exp e1,e3   # run a subset
//	disco-bench -quick       # reduced sizes (used in CI)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"disco/internal/harness"
)

func main() {
	var (
		exps  = flag.String("exp", "f1,f2,e1,e2,e3,e4,e5,e6,e7", "comma-separated experiment ids")
		quick = flag.Bool("quick", false, "reduced problem sizes")
	)
	flag.Parse()
	if err := run(strings.Split(*exps, ","), *quick); err != nil {
		fmt.Fprintln(os.Stderr, "disco-bench:", err)
		os.Exit(1)
	}
}

func run(ids []string, quick bool) error {
	e1ns := []int{1, 2, 4, 8, 16, 32}
	e1trials := 10
	e3rows := 4000
	e5ns := []int{1, 2, 4, 8, 16, 32, 64}
	e7rows := 1500
	e7lat := []time.Duration{0, 10 * time.Millisecond, 40 * time.Millisecond}
	if quick {
		e1ns = []int{1, 2, 4, 8}
		e1trials = 4
		e3rows = 500
		e5ns = []int{1, 4, 16}
		e7rows = 300
		e7lat = []time.Duration{0, 10 * time.Millisecond}
	}

	for _, id := range ids {
		var (
			table *harness.Table
			err   error
		)
		switch strings.TrimSpace(strings.ToLower(id)) {
		case "f1":
			table, err = harness.F1Architecture()
		case "f2":
			table, err = harness.F2Pipeline()
		case "e1":
			table, err = harness.E1Availability(e1ns, 0.90, e1trials, 150*time.Millisecond)
		case "e2":
			table, err = harness.E2Partial()
		case "e3":
			table, err = harness.E3Pushdown(e3rows)
		case "e4":
			table, err = harness.E4CostLearning()
		case "e5":
			table, err = harness.E5Scaling(e5ns)
		case "e6":
			table, err = harness.E6Modeling()
		case "e7":
			table, err = harness.E7WideArea(e7rows, e7lat)
		case "":
			continue
		default:
			return fmt.Errorf("unknown experiment %q", id)
		}
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		fmt.Println(table)
	}
	return nil
}
