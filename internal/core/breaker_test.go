package core

import (
	"testing"
	"time"
)

// TestBreakerTransitions drives one source's breaker through its full
// state machine with an injected clock: consecutive failures open it, the
// cooldown half-opens exactly one probe, and the probe's outcome closes or
// re-opens it.
func TestBreakerTransitions(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreakers(3, time.Minute)
	b.now = func() time.Time { return clock }

	// Below the threshold the breaker stays closed, and a success resets
	// the consecutive count.
	b.Failure("r0")
	b.Failure("r0")
	if got := b.State("r0"); got != BreakerClosed {
		t.Fatalf("state after 2 failures = %v, want closed", got)
	}
	b.Success("r0")
	b.Failure("r0")
	b.Failure("r0")
	if got := b.State("r0"); got != BreakerClosed {
		t.Fatalf("success must reset the consecutive count; state = %v", got)
	}

	// The threshold-th consecutive failure opens it.
	b.Failure("r0")
	if got := b.State("r0"); got != BreakerOpen {
		t.Fatalf("state after 3 consecutive failures = %v, want open", got)
	}
	if b.Allow("r0") {
		t.Fatal("open breaker inside its cooldown must refuse")
	}

	// After the cooldown, exactly one probe is admitted.
	clock = clock.Add(time.Minute)
	if !b.Allow("r0") {
		t.Fatal("cooldown elapsed: the half-open probe must be admitted")
	}
	if got := b.State("r0"); got != BreakerHalfOpen {
		t.Fatalf("state during probe = %v, want half-open", got)
	}
	if b.Allow("r0") {
		t.Fatal("only one probe at a time may run half-open")
	}

	// A failed probe re-opens and re-arms the cooldown.
	b.Failure("r0")
	if got := b.State("r0"); got != BreakerOpen {
		t.Fatalf("state after failed probe = %v, want open", got)
	}
	if b.Allow("r0") {
		t.Fatal("failed probe must re-arm the cooldown")
	}

	// A successful probe closes it again.
	clock = clock.Add(time.Minute)
	if !b.Allow("r0") {
		t.Fatal("second probe must be admitted after the re-armed cooldown")
	}
	b.Success("r0")
	if got := b.State("r0"); got != BreakerClosed {
		t.Fatalf("state after successful probe = %v, want closed", got)
	}
	if !b.Allow("r0") {
		t.Fatal("closed breaker must allow")
	}

	// A redundant success leaves a closed breaker closed.
	b.Success("r0")
	if got := b.State("r0"); got != BreakerClosed {
		t.Fatalf("state after redundant success = %v, want closed", got)
	}

	// A success while open — an answer from a last-resort dial — closes it
	// without waiting out the cooldown.
	for i := 0; i < 3; i++ {
		b.Failure("r0")
	}
	if got := b.State("r0"); got != BreakerOpen {
		t.Fatalf("state after 3 more failures = %v, want open", got)
	}
	b.Success("r0")
	if got := b.State("r0"); got != BreakerClosed {
		t.Fatalf("state after success while open = %v, want closed", got)
	}

	// Sources are independent.
	if got := b.State("r1"); got != BreakerClosed {
		t.Fatalf("untouched source state = %v, want closed", got)
	}
}

// TestBreakerReleaseReturnsProbeSlot: an attempt that Allow admitted as
// the half-open probe but that was abandoned before a verdict (caller
// cancelled, mediator-side failure) must return the slot via Release —
// otherwise the breaker would stay half-open with its probe pinned
// forever and the source could never rejoin routing.
func TestBreakerReleaseReturnsProbeSlot(t *testing.T) {
	clock := time.Unix(0, 0)
	b := NewBreakers(1, time.Minute)
	b.now = func() time.Time { return clock }
	b.Failure("r0")
	clock = clock.Add(time.Minute)
	if !b.Allow("r0") {
		t.Fatal("probe should be admitted after the cooldown")
	}
	if b.Allow("r0") {
		t.Fatal("probe slot should be claimed")
	}
	b.Release("r0")
	if !b.Allow("r0") {
		t.Fatal("Release must return the probe slot so a later attempt can probe")
	}
}
