package core

import (
	"context"
	"errors"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/physical"
	"disco/internal/types"
	"disco/internal/wire"
)

// The race is tested through its attempt seam: fakeCopies scripts what each
// copy of a shard does when dialed and records the order and the deadline
// share of every dial. No sockets, no waiting out timeouts.
type fakeCopies struct {
	mu     sync.Mutex
	script map[string]func(ctx context.Context, repo string) (*types.Bag, error)
	dialed []string
	shares map[string]time.Duration // time to the attempt deadline at dial
	seen   map[string]chan struct{} // closed when the copy is dialed
	wg     sync.WaitGroup           // every dial, so tests can wait out losers
}

func newFakeCopies() *fakeCopies {
	return &fakeCopies{
		script: map[string]func(context.Context, string) (*types.Bag, error){},
		shares: map[string]time.Duration{},
		seen:   map[string]chan struct{}{},
	}
}

func (f *fakeCopies) attempt(ctx context.Context, repo string) (*types.Bag, error) {
	f.wg.Add(1)
	defer f.wg.Done()
	f.mu.Lock()
	f.dialed = append(f.dialed, repo)
	if d, ok := ctx.Deadline(); ok {
		f.shares[repo] = time.Until(d)
	}
	do := f.script[repo]
	f.mu.Unlock()
	close(f.dialedCh(repo))
	return do(ctx, repo)
}

// dialedCh returns the channel that closes when repo is dialed. An arm's
// goroutine may start after the race that launched it has moved on, so
// tests wait here before reading the dial record or waiting out losers.
func (f *fakeCopies) dialedCh(repo string) chan struct{} {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.seen[repo] == nil {
		f.seen[repo] = make(chan struct{})
	}
	return f.seen[repo]
}

func (f *fakeCopies) order() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.dialed...)
}

// answers makes a copy answer with a bag naming it.
func answers(_ context.Context, repo string) (*types.Bag, error) {
	return types.NewBag(types.Str(repo)), nil
}

// down makes a copy resolve unavailable at once.
func down(_ context.Context, repo string) (*types.Bag, error) {
	return nil, &physical.UnavailableError{Repo: repo, Err: errors.New("no answer")}
}

// remoteError makes a copy answer with a genuine query failure.
func remoteError(_ context.Context, repo string) (*types.Bag, error) {
	return nil, &wire.RemoteError{Addr: repo, Msg: "no such table"}
}

// hangs makes a copy straggle until the race calls it off, then report what
// a real attempt reports for a cancelled call.
func hangs(ctx context.Context, repo string) (*types.Bag, error) {
	<-ctx.Done()
	return nil, classifySourceError(ctx, repo, ctx.Err())
}

// raceMediator returns a mediator whose breakers open on the first failure
// and run on a hand-cranked clock, so cooldowns elapse only when a test says.
func raceMediator(t *testing.T, opts ...Option) (*Mediator, *time.Time) {
	t.Helper()
	m := New(append([]Option{WithBreaker(1, time.Minute)}, opts...)...)
	t.Cleanup(m.Close)
	now := time.Unix(1000, 0)
	m.breakers.now = func() time.Time { return now }
	return m, &now
}

// hurried runs the race under a scatter-gather branch whose straggler hook
// fires once the first copy has been dialed (and beforeHurry, if any, has
// run), so the only thing the race can do next is react to the hook.
func hurried(m *Mediator, cands []string, f *fakeCopies, beforeHurry func()) (*types.Bag, error) {
	e := physical.NewExec(cands[0], nil, &physical.Runtime{
		Submit: func(ctx context.Context, repo string, _ algebra.Node) (*types.Bag, error) {
			return m.race(ctx, repo, cands, f.attempt)
		},
	})
	e.Start(context.Background())
	<-f.dialedCh(cands[0])
	if beforeHurry != nil {
		beforeHurry()
	}
	e.Hurry()
	return e.Wait()
}

func isShardUnavailable(err error, shard string) bool {
	var ue *physical.UnavailableError
	return errors.As(err, &ue) && ue.Repo == shard
}

// TestRaceRouting is the routing contract of the one candidate race, case
// by case: which copies are dialed, in which order, and what comes back.
func TestRaceRouting(t *testing.T) {
	type copies = map[string]func(context.Context, string) (*types.Bag, error)
	cases := []struct {
		name   string
		cands  []string
		open   []string // breakers open, cooldown pending, before the race
		script copies
		// claimMidRace names a copy whose half-open probe slot another query
		// claims while the first copy is being dialed: admitted when the race
		// partitioned its copies, refused when its turn to launch comes.
		claimMidRace string
		wantOrder    []string
		wantAnswer   string // the copy whose bag comes back; "" for an error
		wantErr      func(error) bool
	}{
		{
			name:      "an answered error aborts and no later copy is dialed",
			cands:     []string{"r0", "r0b", "r0c"},
			script:    copies{"r0": remoteError, "r0b": answers, "r0c": answers},
			wantOrder: []string{"r0"},
			wantErr: func(err error) bool {
				var re *wire.RemoteError
				return errors.As(err, &re) && !isUnavailableErr(err)
			},
		},
		{
			name:       "unavailable moves on to the next admitted copy",
			cands:      []string{"r0", "r0b", "r0c"},
			script:     copies{"r0": down, "r0b": answers, "r0c": answers},
			wantOrder:  []string{"r0", "r0b"},
			wantAnswer: "r0b",
		},
		{
			name:      "admitted copies, then the refused tail, then an error naming the shard",
			cands:     []string{"r0", "r0b", "r0c"},
			open:      []string{"r0b"},
			script:    copies{"r0": down, "r0b": down, "r0c": down},
			wantOrder: []string{"r0", "r0c", "r0b"},
			wantErr:   func(err error) bool { return isShardUnavailable(err, "r0") },
		},
		{
			name:       "a breaker can delay a copy but never leave it undialed",
			cands:      []string{"r0", "r0b"},
			open:       []string{"r0b"},
			script:     copies{"r0": down, "r0b": answers},
			wantOrder:  []string{"r0", "r0b"},
			wantAnswer: "r0b",
		},
		{
			name:         "a copy refused at launch time moves to the tail and is still dialed",
			cands:        []string{"r0", "r0b", "r0c"},
			claimMidRace: "r0b",
			script:       copies{"r0": down, "r0b": answers, "r0c": down},
			wantOrder:    []string{"r0", "r0c", "r0b"},
			wantAnswer:   "r0b",
		},
		{
			name:       "every copy refused: all are dialed anyway",
			cands:      []string{"r0", "r0b"},
			open:       []string{"r0", "r0b"},
			script:     copies{"r0": down, "r0b": answers},
			wantOrder:  []string{"r0", "r0b"},
			wantAnswer: "r0b",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, now := raceMediator(t)
			f := newFakeCopies()
			f.script = tc.script
			for _, repo := range tc.open {
				m.breakers.Failure(repo)
			}
			if repo := tc.claimMidRace; repo != "" {
				m.breakers.Failure(repo)
				*now = now.Add(2 * time.Minute) // cooldown over: admittable, slot free
				first := f.script[tc.cands[0]]
				f.script[tc.cands[0]] = func(ctx context.Context, r string) (*types.Bag, error) {
					if !m.breakers.Allow(repo) {
						t.Errorf("probe slot of %s was not free mid-race", repo)
					}
					return first(ctx, r)
				}
			}
			bag, err := m.race(context.Background(), tc.cands[0], tc.cands, f.attempt)
			if got := f.order(); !reflect.DeepEqual(got, tc.wantOrder) {
				t.Errorf("dialed %v, want %v", got, tc.wantOrder)
			}
			switch {
			case tc.wantErr != nil:
				if err == nil || !tc.wantErr(err) {
					t.Errorf("err = %v", err)
				}
			case err != nil:
				t.Errorf("err = %v, want the answer of %s", err, tc.wantAnswer)
			case !bag.Equal(types.NewBag(types.Str(tc.wantAnswer))):
				t.Errorf("answer = %s, want the bag of %s", bag, tc.wantAnswer)
			}
		})
	}
}

// TestRaceHedgesOnlyAdmittedCopies: a hedge — here the scatter-gather
// straggler hook — skips a breaker-refused copy even when it is next in
// line, whether the breaker refused before the race or at launch time, and
// the loser it races is called off.
func TestRaceHedgesOnlyAdmittedCopies(t *testing.T) {
	for _, refusedAtLaunch := range []bool{false, true} {
		m, now := raceMediator(t, WithHedging(time.Hour)) // only the hook hedges
		f := newFakeCopies()
		f.script["r0"], f.script["r0b"], f.script["r0c"] = hangs, answers, answers
		m.breakers.Failure("r0b")
		var claim func()
		if refusedAtLaunch {
			*now = now.Add(2 * time.Minute)            // admittable when the race partitions
			claim = func() { m.breakers.Allow("r0b") } // until another query takes the probe slot
		}
		bag, err := hurried(m, []string{"r0", "r0b", "r0c"}, f, claim)
		if err != nil || !bag.Equal(types.NewBag(types.Str("r0c"))) {
			t.Fatalf("refusedAtLaunch=%v: answer = %v, %v; want the hedge to r0c to win", refusedAtLaunch, bag, err)
		}
		if got := f.order(); !reflect.DeepEqual(got, []string{"r0", "r0c"}) {
			t.Errorf("refusedAtLaunch=%v: dialed %v, want [r0 r0c]: the refused r0b must not be hedged to", refusedAtLaunch, got)
		}
		if fired, won := m.hedgesFired.Load(), m.hedgesWon.Load(); fired != 1 || won != 1 {
			t.Errorf("refusedAtLaunch=%v: hedges fired=%d won=%d, want 1 and 1", refusedAtLaunch, fired, won)
		}
		f.wg.Wait() // the loser was cancelled, or this hangs
	}
}

// TestRaceHedgeNeverReachesTail: when the only copy left is breaker-refused,
// the straggler hook launches nothing; the copy is dialed only as the last
// resort, after the straggler itself resolves unavailable.
func TestRaceHedgeNeverReachesTail(t *testing.T) {
	m, now := raceMediator(t, WithHedging(time.Hour))
	m.breakers.Failure("r0b")
	*now = now.Add(2 * time.Minute)
	f := newFakeCopies()
	release := make(chan struct{})
	f.script["r0"] = func(ctx context.Context, repo string) (*types.Bag, error) {
		<-release
		return down(ctx, repo)
	}
	f.script["r0b"] = answers
	bag, err := hurried(m, []string{"r0", "r0b"}, f, func() {
		m.breakers.Allow("r0b") // refused from here on
		go func() {
			time.Sleep(time.Millisecond) // ample for the race to react to the hook
			close(release)
		}()
	})
	if err != nil || !bag.Equal(types.NewBag(types.Str("r0b"))) {
		t.Fatalf("answer = %v, %v; want r0b's, as the last resort", bag, err)
	}
	if fired := m.hedgesFired.Load(); fired != 0 {
		t.Errorf("hedgesFired = %d, want 0: the refused copy was hedged to", fired)
	}
}

// TestRaceTailWaitsForAdmittedArms: the last resort starts only once every
// admitted arm has resolved. A hedge that comes back unavailable while the
// straggler it backed up is still running launches nothing.
func TestRaceTailWaitsForAdmittedArms(t *testing.T) {
	m, _ := raceMediator(t, WithHedging(time.Hour))
	m.breakers.Failure("r0c")
	f := newFakeCopies()
	release := make(chan struct{})
	f.script["r0"] = func(ctx context.Context, repo string) (*types.Bag, error) {
		<-release
		return down(ctx, repo)
	}
	f.script["r0b"] = func(ctx context.Context, repo string) (*types.Bag, error) {
		go func() {
			time.Sleep(time.Millisecond) // ample for the race to see r0b's verdict
			close(release)
		}()
		return down(ctx, repo)
	}
	f.script["r0c"] = func(ctx context.Context, repo string) (*types.Bag, error) {
		select {
		case <-release:
		default:
			t.Error("the refused r0c was dialed while the admitted r0 was still in flight")
		}
		return answers(ctx, repo)
	}
	bag, err := hurried(m, []string{"r0", "r0b", "r0c"}, f, nil)
	if err != nil || !bag.Equal(types.NewBag(types.Str("r0c"))) {
		t.Fatalf("answer = %v, %v; want r0c's, as the last resort", bag, err)
	}
}

// TestRaceHedgeBudget: hedges stop at hedges*8 < submits+64. With one hedge
// left in the budget the first trigger fires it; the triggers that follow
// find the budget spent and launch nothing, however many admitted copies
// remain.
func TestRaceHedgeBudget(t *testing.T) {
	m, _ := raceMediator(t, WithHedging(time.Microsecond))
	m.hedgesFired.Store(7) // 7*8 < 0+64 admits one more; 8*8 does not
	f := newFakeCopies()
	secondDialed := make(chan struct{})
	release := make(chan struct{})
	f.script["r0"] = hangs
	f.script["r0b"] = func(ctx context.Context, repo string) (*types.Bag, error) {
		close(secondDialed)
		<-release
		return answers(ctx, repo)
	}
	f.script["r0c"] = answers
	go func() {
		<-secondDialed
		time.Sleep(time.Millisecond) // many hedge triggers' worth
		close(release)
	}()
	bag, err := hurried(m, []string{"r0", "r0b", "r0c"}, f, nil)
	if err != nil || !bag.Equal(types.NewBag(types.Str("r0b"))) {
		t.Fatalf("answer = %v, %v; want r0b's", bag, err)
	}
	// (The microsecond trigger may beat r0's own goroutine to the record.)
	got := f.order()
	sort.Strings(got)
	if !reflect.DeepEqual(got, []string{"r0", "r0b"}) {
		t.Errorf("dialed %v, want r0 and r0b: r0c is beyond the hedge budget", got)
	}
	if fired := m.hedgesFired.Load(); fired != 8 {
		t.Errorf("hedgesFired = %d, want 8", fired)
	}
	f.wg.Wait()
}

// TestRaceDeadlineShares: the admitted arms split the evaluation budget
// with one share reserved for the tail, and the tail re-splits what is
// left, its last copy running under the parent deadline.
func TestRaceDeadlineShares(t *testing.T) {
	m, _ := raceMediator(t)
	f := newFakeCopies()
	cands := []string{"a", "b", "c", "d"}
	for _, c := range cands {
		f.script[c] = down
	}
	m.breakers.Failure("c")
	m.breakers.Failure("d")
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if _, err := m.race(ctx, "a", cands, f.attempt); !isShardUnavailable(err, "a") {
		t.Fatalf("err = %v, want shard a unavailable", err)
	}
	// Every fake resolves at once, so ~1s is left at each launch: a gets
	// 1/(2 admitted + 1 reserved), b 1/(1+1), c 1/2 of the tail, d the rest.
	for repo, want := range map[string]time.Duration{
		"a": time.Second / 3, "b": time.Second / 2, "c": time.Second / 2, "d": time.Second,
	} {
		if got := f.shares[repo]; got > want || got < want-100*time.Millisecond {
			t.Errorf("share of %s = %v, want just under %v", repo, got, want)
		}
	}
}

// TestRaceLoserLeavesNoBreakerVerdict: a hedged race's loser is cancelled
// and counts as neither answer nor failure. The loser here holds a
// half-open probe slot: afterwards its breaker is still half-open — a
// success would have closed it, a failure reopened it — with the slot
// returned. (The other half of the invariant, no cost observation, is the
// real attempt's: TestHedgedRequestRescuesSlowCopy.)
func TestRaceLoserLeavesNoBreakerVerdict(t *testing.T) {
	m, now := raceMediator(t, WithHedging(time.Hour))
	m.breakers.Failure("r0")
	*now = now.Add(2 * time.Minute)
	f := newFakeCopies()
	f.script["r0"], f.script["r0b"] = hangs, answers
	if _, err := hurried(m, []string{"r0", "r0b"}, f, nil); err != nil {
		t.Fatal(err)
	}
	// The loser hands its slot back after the race has returned (and the
	// probe pass, if it got the slot, after failing to find the repository).
	if !waitCondition(2*time.Second, func() bool { return m.breakers.Admittable("r0") }) {
		t.Error("the loser kept the probe slot it claimed")
	}
	if got := m.BreakerState("r0"); got != BreakerHalfOpen {
		t.Errorf("loser's breaker = %v, want half-open: losing a race is not a verdict", got)
	}
}

// TestRaceOfOne: a one-copy shard takes the same path. The copy runs under
// the whole parent deadline, its own unavailability comes back unwrapped, an
// open breaker does not keep it from being dialed, a dead caller context is
// a plain error that dials nothing — and the probe pass runs.
func TestRaceOfOne(t *testing.T) {
	t.Run("answers under the parent deadline", func(t *testing.T) {
		m, _ := raceMediator(t)
		f := newFakeCopies()
		f.script["r0"] = answers
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		bag, err := m.race(ctx, "r0", []string{"r0"}, f.attempt)
		if err != nil || !bag.Equal(types.NewBag(types.Str("r0"))) {
			t.Fatalf("answer = %v, %v", bag, err)
		}
		if got := f.shares["r0"]; got < 900*time.Millisecond {
			t.Errorf("lone copy's deadline share = %v, want the parent's ~1s", got)
		}
	})
	t.Run("unavailable is the copy's own verdict and feeds its breaker", func(t *testing.T) {
		m, _ := raceMediator(t)
		f := newFakeCopies()
		verdict := &physical.UnavailableError{Repo: "r0", Err: errors.New("no answer")}
		f.script["r0"] = func(context.Context, string) (*types.Bag, error) { return nil, verdict }
		if _, err := m.race(context.Background(), "r0", []string{"r0"}, f.attempt); err != verdict {
			t.Errorf("err = %v, want the copy's verdict itself", err)
		}
		if got := m.BreakerState("r0"); got != BreakerOpen {
			t.Errorf("breaker = %v, want open after the threshold-1 failure", got)
		}
	})
	t.Run("an open breaker does not keep the lone copy undialed", func(t *testing.T) {
		m, _ := raceMediator(t)
		m.breakers.Failure("r0")
		f := newFakeCopies()
		f.script["r0"] = answers
		if _, err := m.race(context.Background(), "r0", []string{"r0"}, f.attempt); err != nil {
			t.Fatal(err)
		}
		if got := m.BreakerState("r0"); got != BreakerClosed {
			t.Errorf("breaker = %v, want closed by the answer", got)
		}
	})
	t.Run("a cancelled caller is a plain error and dials nothing", func(t *testing.T) {
		m, _ := raceMediator(t)
		f := newFakeCopies()
		f.script["r0"] = answers
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, err := m.race(ctx, "r0", []string{"r0"}, f.attempt)
		if err == nil || isUnavailableErr(err) || !errors.Is(err, context.Canceled) {
			t.Errorf("err = %v, want a plain cancellation error", err)
		}
		if got := f.order(); len(got) != 0 {
			t.Errorf("dialed %v with a dead context", got)
		}
	})
	t.Run("the probe pass pings an open lone copy back to health", func(t *testing.T) {
		m, now := raceMediator(t)
		m.RegisterEngine("r0", shardStore(t, nil))
		if err := m.ExecODL(`r0 := Repository(address="mem:r0");`); err != nil {
			t.Fatal(err)
		}
		m.breakers.Failure("r0")
		*now = now.Add(2 * time.Minute)
		f := newFakeCopies()
		// The query itself fails mediator-side, which is no verdict on r0.
		f.script["r0"] = func(context.Context, string) (*types.Bag, error) {
			return nil, errors.New("translation failed")
		}
		if _, err := m.race(context.Background(), "r0", []string{"r0"}, f.attempt); err == nil {
			t.Fatal("want the attempt's error")
		}
		m.probeWG.Wait()
		if got := m.BreakerState("r0"); got != BreakerClosed {
			t.Errorf("breaker = %v, want closed by the background probe", got)
		}
	})
}

// TestUnclaimedAttemptKeepsProbeSlot: at most one probe per source. A
// last-resort dial of a copy whose breaker refused claimed no probe slot,
// so when the caller cancels it there is none to hand back: the slot a
// background probe holds stays held, and no second probe is admitted.
func TestUnclaimedAttemptKeepsProbeSlot(t *testing.T) {
	m, now := raceMediator(t)
	m.breakers.Failure("r0")
	*now = now.Add(2 * time.Minute)
	if !m.breakers.Allow("r0") {
		t.Fatal("could not claim the probe slot")
	} // a background probe is now in flight
	ctx, cancel := context.WithCancel(context.Background())
	f := newFakeCopies()
	f.script["r0"] = func(ctx context.Context, repo string) (*types.Bag, error) {
		cancel()
		return hangs(ctx, repo)
	}
	if _, err := m.race(ctx, "r0", []string{"r0"}, f.attempt); err == nil || isUnavailableErr(err) {
		t.Fatalf("err = %v, want a plain cancellation error", err)
	}
	m.probeWG.Wait()
	if m.breakers.Admittable("r0") {
		t.Error("a cancelled attempt that claimed no probe slot released the in-flight probe's")
	}
	if got := m.BreakerState("r0"); got != BreakerHalfOpen {
		t.Errorf("breaker = %v, want still half-open", got)
	}
}
