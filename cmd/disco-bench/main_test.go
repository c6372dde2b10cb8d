package main

import (
	"testing"
)

func TestRunQuickSubset(t *testing.T) {
	// The fast experiments run end to end at quick sizes.
	if err := run([]string{"f2", "e5", "e6"}, true); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	// e8 and e9 are not paper experiments.
	for _, id := range []string{"e99", "e8", "e9"} {
		if err := run([]string{id}, true); err == nil {
			t.Errorf("unknown experiment id %q should fail", id)
		}
	}
}

func TestRunEmptyIDsSkipped(t *testing.T) {
	if err := run([]string{""}, true); err != nil {
		t.Fatal(err)
	}
}
