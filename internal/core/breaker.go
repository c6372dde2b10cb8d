package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"disco/internal/wire"
)

// Circuit-breaker defaults. A source is declared dead after
// DefaultBreakerThreshold consecutive classified unavailabilities and
// probed again after DefaultBreakerCooldown.
const (
	DefaultBreakerThreshold = 3
	DefaultBreakerCooldown  = 5 * time.Second
)

// BreakerState is the state of one source's circuit breaker.
type BreakerState uint8

// Breaker states. Closed is the healthy default: submits flow. Open means
// the source accumulated enough consecutive unavailabilities that routing
// skips it where a replica can answer instead. HalfOpen admits a single
// probe after the cooldown; its outcome closes or reopens the breaker.
const (
	BreakerClosed BreakerState = iota
	BreakerOpen
	BreakerHalfOpen
)

// String returns the lowercase state name.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// Breakers tracks a per-source circuit breaker keyed by repository name.
// The availability classifier feeds it (only classified unavailability
// counts as failure — a source that answered, even with an error, is
// alive) and replica routing consults it, so repeat queries skip a
// known-dead copy without re-paying its timeout. It is a routing concern
// only: the optimizer never reads it, so no transition touches a prepared
// plan. It is safe for concurrent use.
type Breakers struct {
	threshold int
	cooldown  time.Duration
	now       func() time.Time // injectable for tests

	mu      sync.Mutex
	sources map[string]*sourceBreaker
}

type sourceBreaker struct {
	state       BreakerState
	consecutive int
	openedAt    time.Time
	probing     bool
}

// NewBreakers returns a breaker set that opens after threshold consecutive
// failures and half-opens a probe after cooldown. Non-positive arguments
// take the defaults.
func NewBreakers(threshold int, cooldown time.Duration) *Breakers {
	if threshold <= 0 {
		threshold = DefaultBreakerThreshold
	}
	if cooldown <= 0 {
		cooldown = DefaultBreakerCooldown
	}
	return &Breakers{
		threshold: threshold,
		cooldown:  cooldown,
		now:       time.Now,
		sources:   make(map[string]*sourceBreaker),
	}
}

func (b *Breakers) get(repo string) *sourceBreaker {
	s, ok := b.sources[repo]
	if !ok {
		s = &sourceBreaker{}
		b.sources[repo] = s
	}
	return s
}

// Allow reports whether a submit may be routed to the source right now.
// Closed always allows. Open allows nothing until the cooldown elapses,
// at which point the breaker transitions to half-open and Allow grants
// exactly one probe (the timer of the half-open protocol); further calls
// are refused until that probe reports Success or Failure.
//
// Allow is advisory: routing falls back to attempting a source whose
// breaker refuses when no healthier copy of the data exists, so an open
// breaker can delay but never forge an unavailability verdict.
func (b *Breakers) Allow(repo string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.get(repo)
	switch s.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(s.openedAt) >= b.cooldown {
			s.state = BreakerHalfOpen
			s.probing = true
			return true
		}
		return false
	default: // BreakerHalfOpen
		if !s.probing {
			s.probing = true
			return true
		}
		return false
	}
}

// Success records an answered submit (data or a genuine source error —
// either proves the source alive) and closes the breaker.
func (b *Breakers) Success(repo string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.get(repo)
	s.state = BreakerClosed
	s.consecutive = 0
	s.probing = false
}

// Failure records one classified unavailability. The threshold-th
// consecutive failure opens the breaker; a failure while open or
// half-open (a failed probe) re-arms the cooldown.
func (b *Breakers) Failure(repo string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := b.get(repo)
	s.consecutive++
	s.probing = false
	switch s.state {
	case BreakerClosed:
		if s.consecutive >= b.threshold {
			s.state = BreakerOpen
			s.openedAt = b.now()
		}
	default: // Open or HalfOpen: the probe failed, re-arm the cooldown.
		s.state = BreakerOpen
		s.openedAt = b.now()
	}
}

// Release returns an unredeemed half-open probe slot: the attempt Allow
// admitted was abandoned before producing a verdict (caller cancelled, or
// the call failed mediator-side without dialing the source). Without it a
// claimed probe would pin the breaker half-open forever.
func (b *Breakers) Release(repo string) {
	b.mu.Lock()
	if s, ok := b.sources[repo]; ok {
		s.probing = false
	}
	b.mu.Unlock()
}

// Admittable reports whether Allow would admit the source right now,
// without claiming the half-open probe slot. Routing uses it to partition
// a shard's copies into healthy and deferred before any of them is dialed
// — the deadline split needs the healthy count first — leaving the actual
// slot claim to the Allow call made when a copy is launched.
func (b *Breakers) Admittable(repo string) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	s, ok := b.sources[repo]
	if !ok {
		return true
	}
	switch s.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		return b.now().Sub(s.openedAt) >= b.cooldown
	default: // BreakerHalfOpen
		return !s.probing
	}
}

// State returns the source's current breaker state without side effects
// (an open breaker past its cooldown still reads Open until a router asks
// Allow). Unknown sources read Closed.
func (b *Breakers) State(repo string) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	if s, ok := b.sources[repo]; ok {
		return s.state
	}
	return BreakerClosed
}

// noteOutcome feeds one submit attempt's result into the source's circuit
// breaker: only a real answer counts as success (data, a remote error, or
// an upstream mediator's partial answer — each proves the source alive),
// only classified unavailability counts as failure, and everything else —
// caller-side termination, mediator-side failures that never dialed the
// source (wrapper lookup, translation) — records no verdict. Such an
// attempt merely returns the half-open probe slot, and only if its launch
// claimed one: a last-resort dial of a breaker-refused copy claimed
// nothing, and releasing would free the slot a background probe holds.
func (m *Mediator) noteOutcome(repo string, err error, claimed bool) {
	var upstream *wire.PartialUpstreamError
	var remote *wire.RemoteError
	switch {
	case err == nil:
		m.breakers.Success(repo)
	case errors.As(err, &upstream), errors.As(err, &remote):
		// Checked before the unavailability case: classify wraps an
		// upstream partial answer in an UnavailableError for partial
		// evaluation, but for the breaker that source answered.
		m.breakers.Success(repo)
	case isUnavailableErr(err):
		m.breakers.Failure(repo)
	case claimed:
		m.breakers.Release(repo)
	}
}

// maybeProbe launches one background liveness probe of a source whose
// breaker is not closed and whose cooldown has elapsed. Allow claims the
// half-open probe slot, so concurrent queries start at most one probe per
// source. The probe's verdict follows noteOutcome's taxonomy: only an
// answer closes the breaker, only unreachability (timeout, dead network)
// re-arms it, and a mediator-side failure that never consulted the source
// (catalog lookup, a closed client) merely returns the probe slot.
// Probes run on tracked goroutines: Close refuses new ones and waits for
// those in flight, so no probe ever dials through a client pool Close has
// already released.
func (m *Mediator) maybeProbe(repo string) {
	if m.breakers.State(repo) == BreakerClosed || !m.breakers.Allow(repo) {
		return
	}
	m.probeMu.Lock()
	if m.probeClosed {
		m.probeMu.Unlock()
		// Allow claimed the half-open probe slot; hand it back, or the
		// breaker would stay pinned half-open with no probe in flight.
		m.breakers.Release(repo)
		return
	}
	m.probeWG.Add(1)
	m.probeMu.Unlock()
	go func() {
		defer m.probeWG.Done()
		switch err := m.pingRepo(repo); {
		case err == nil:
			m.breakers.Success(repo)
		case errors.Is(err, context.DeadlineExceeded) || isUnavailableNetErr(err):
			m.breakers.Failure(repo)
		default:
			m.breakers.Release(repo)
		}
	}()
}

// pingRepo checks a repository's liveness: in-process engines by registry
// lookup, remote repositories by a wire ping within the evaluation
// deadline.
func (m *Mediator) pingRepo(repo string) error {
	r, err := m.catalog.Repository(repo)
	if err != nil {
		return err
	}
	if name, ok := strings.CutPrefix(r.Address, "mem:"); ok {
		m.mu.Lock()
		_, found := m.engines[name]
		m.mu.Unlock()
		if !found {
			return fmt.Errorf("mediator: no in-process engine %q", name)
		}
		return nil
	}
	//lint:allow ctxflow breaker probes deliberately outlive the query that triggered them (probeWG-tracked, bounded by the mediator timeout): a caller walking away must not strand the breaker half-open
	ctx, cancel := context.WithTimeout(context.Background(), m.timeout)
	defer cancel()
	return m.clientFor(r.Address).Ping(ctx)
}
