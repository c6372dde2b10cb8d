package optimizer

import (
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/costmodel"
)

// replicatedSubmit is a submit whose extent declares two copies.
func replicatedSubmit() *algebra.Submit {
	ref := personRef("person0", "r0")
	ref.Replicas = []string{"r0", "r0b"}
	return &algebra.Submit{Repo: "r0", Input: &algebra.Get{Ref: ref}}
}

// TestReplicatedSubmitCostsCheapestCopy: among its copies the submit
// costs the fastest one — the copy routing would dial first.
func TestReplicatedSubmitCostsCheapestCopy(t *testing.T) {
	h := costmodel.New()
	sub := replicatedSubmit()
	for i := 0; i < 4; i++ {
		h.Record("r0", sub.Input, 50*time.Millisecond, 10)
		h.Record("r0b", sub.Input, 5*time.Millisecond, 10)
	}
	o := New(fullCaps(), h)
	cost := o.estimate(sub)
	if cost.SourceTime < 4 || cost.SourceTime > 10 {
		t.Errorf("SourceTime = %vms, want ~5ms (the faster copy), not the primary's ~50ms", cost.SourceTime)
	}
}
