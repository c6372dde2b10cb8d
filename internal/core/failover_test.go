package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"disco/internal/algebra"
	"disco/internal/physical"
	"disco/internal/types"
	"disco/internal/wire"
)

// replicatedMediator declares one extent partitioned over two shards with
// one replica each (at r0|r0b, r1|r1b), every copy served over TCP so
// availability can be flipped per server. Each replica holds the same rows
// as its primary — the replica contract.
func replicatedMediator(t *testing.T, opts ...Option) (*Mediator, map[string]*wire.Server) {
	t.Helper()
	servers := map[string]*wire.Server{}
	var odl strings.Builder
	for shard := 0; shard < 2; shard++ {
		for _, suffix := range []string{"", "b"} {
			repo := fmt.Sprintf("r%d%s", shard, suffix)
			srv, err := wire.NewServer("127.0.0.1:0", EngineHandler{Engine: shardStore(t, shardRows[shard])})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { srv.Close() })
			servers[repo] = srv
			fmt.Fprintf(&odl, "%s := Repository(address=%q);\n", repo, srv.Addr())
		}
	}
	odl.WriteString(`
		w0 := WrapperPostgres();
		interface Person (extent person) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent people of Person wrapper w0 at r0|r0b, r1|r1b;
	`)
	m := New(append([]Option{WithTimeout(800 * time.Millisecond)}, opts...)...)
	t.Cleanup(m.Close)
	if err := m.ExecODL(odl.String()); err != nil {
		t.Fatal(err)
	}
	return m, servers
}

// wantAll is the full people bag of shards 0 and 1.
func wantAll() *types.Bag {
	var elems []types.Value
	for _, rows := range shardRows[:2] {
		for _, r := range rows {
			elems = append(elems, types.NewStruct(
				types.Field{Name: "id", Value: types.Int(int64(r[0].(int)))},
				types.Field{Name: "name", Value: types.Str(r[1].(string))},
				types.Field{Name: "salary", Value: types.Int(int64(r[2].(int)))},
			))
		}
	}
	return types.NewBag(elems...)
}

// TestFailoverRouting is the table-driven failover contract: as long as at
// least one copy of every shard answers, the query completes with the full
// bag and no residual, whichever copies are down.
func TestFailoverRouting(t *testing.T) {
	cases := []struct {
		name string
		down []string
	}{
		{name: "all copies up"},
		{name: "primary down, replica answers", down: []string{"r0"}},
		{name: "replica down, primary answers", down: []string{"r0b"}},
		{name: "both primaries down", down: []string{"r0", "r1"}},
		{name: "primary of one shard, replica of the other", down: []string{"r0", "r1b"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, servers := replicatedMediator(t)
			for _, repo := range tc.down {
				servers[repo].SetAvailable(false)
			}
			ans, err := m.QueryPartial(`select x from x in people`)
			if err != nil {
				t.Fatal(err)
			}
			if !ans.Complete {
				t.Fatalf("want complete answer, got residual %s", ans.Residual)
			}
			if !ans.Value.Equal(wantAll()) {
				t.Errorf("answer = %s, want %s", ans.Value, wantAll())
			}
		})
	}
}

// TestFailoverAllReplicasDown: partial evaluation fires only when every
// copy of a shard is down — and the residual stays resubmittable, naming
// the shard by its primary so recovery of any copy completes it.
func TestFailoverAllReplicasDown(t *testing.T) {
	m, servers := replicatedMediator(t)
	servers["r0"].SetAvailable(false)
	servers["r0b"].SetAvailable(false)

	ans, err := m.QueryPartial(`select x.name from x in people where x.salary > 10`)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Complete {
		t.Fatal("want a partial answer with every copy of shard 0 down")
	}
	residual := ans.Residual.String()
	if !strings.Contains(residual, "people@r0") {
		t.Errorf("residual should name the missing shard people@r0: %s", residual)
	}
	if len(ans.Unavailable) != 1 || ans.Unavailable[0] != "r0" {
		t.Errorf("unavailable = %v, want [r0] (the shard's primary)", ans.Unavailable)
	}

	// Only the replica recovers: resubmission must still complete, routed
	// through the shard's surviving copy.
	servers["r0b"].SetAvailable(true)
	re, err := m.QueryPartial(residual)
	if err != nil {
		t.Fatal(err)
	}
	if !re.Complete {
		t.Fatalf("resubmission should complete via the replica: %s", re.Residual)
	}
	want := types.NewBag(types.Str("Mary"), types.Str("Sam"))
	if !re.Value.Equal(want) {
		t.Errorf("resubmitted = %s, want %s", re.Value, want)
	}
}

// TestReplicaShardAddressing: the extent@repo form accepts a replica name
// and canonicalizes it to the shard, so hand-written shard queries work
// against any copy's name.
func TestReplicaShardAddressing(t *testing.T) {
	m, servers := replicatedMediator(t)
	servers["r0"].SetAvailable(false)
	v, err := m.Query(`select x.name from x in people@r0b`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(types.NewBag(types.Str("Mary"))) {
		t.Errorf("people@r0b = %s", v)
	}
}

// TestBreakerWarmSkipsDeadPrimaryTimeout is the acceptance criterion: with
// the breaker warm, a query whose home shard's primary is down completes
// via the replica without re-paying the dead primary's timeout.
func TestBreakerWarmSkipsDeadPrimaryTimeout(t *testing.T) {
	m, servers := replicatedMediator(t, WithBreaker(1, time.Minute))
	servers["r0"].SetAvailable(false)

	const q = `select x from x in people`
	// Cold: the first query burns its share of the deadline on r0 before
	// failing over.
	start := time.Now()
	if _, err := m.Query(q); err != nil {
		t.Fatal(err)
	}
	cold := time.Since(start)
	if got := m.BreakerState("r0"); got != BreakerOpen {
		t.Fatalf("breaker for r0 = %v after classified unavailability, want open", got)
	}

	// Warm: the open breaker routes straight to the replica.
	start = time.Now()
	if _, err := m.Query(q); err != nil {
		t.Fatal(err)
	}
	warm := time.Since(start)
	// The cold path waits out r0's attempt share (half of the 800ms
	// deadline); the warm path must not.
	if warm > 200*time.Millisecond {
		t.Errorf("warm failover took %v (cold %v): the open breaker should skip the dead primary", warm, cold)
	}
	if cold < 300*time.Millisecond {
		t.Logf("cold failover unexpectedly fast (%v); timing assertion may be meaningless", cold)
	}
}

// TestBreakerProbeRecoversPrimary: after the cooldown, the half-open probe
// rediscovers a recovered primary and closes the breaker.
func TestBreakerProbeRecoversPrimary(t *testing.T) {
	m, servers := replicatedMediator(t, WithBreaker(1, 50*time.Millisecond))
	servers["r0"].SetAvailable(false)
	if _, err := m.Query(`select x from x in people`); err != nil {
		t.Fatal(err)
	}
	if got := m.BreakerState("r0"); got != BreakerOpen {
		t.Fatalf("breaker for r0 = %v, want open", got)
	}
	servers["r0"].SetAvailable(true)
	time.Sleep(60 * time.Millisecond) // past the cooldown
	// The next query routes via the replica and fires the background probe;
	// the probe's success closes the breaker shortly after.
	if _, err := m.Query(`select x from x in people`); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for m.BreakerState("r0") != BreakerClosed && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if got := m.BreakerState("r0"); got != BreakerClosed {
		t.Errorf("breaker for r0 = %v after a successful probe, want closed", got)
	}
}

// TestBreakerOpenReplicaStillAnswersShard: the breaker is advisory — a
// copy whose breaker is open (cooldown pending) is deferred behind the
// healthy copies, but when every admitted copy turns out dead it is still
// dialed as a last resort. A breaker must never convert a shard with a
// live copy into a partial answer.
func TestBreakerOpenReplicaStillAnswersShard(t *testing.T) {
	m, servers := replicatedMediator(t, WithBreaker(1, time.Minute))
	// r0b blipped moments ago: its breaker is open and the cooldown has
	// not elapsed. Then the primary dies for real.
	m.breakers.Failure("r0b")
	servers["r0"].SetAvailable(false)
	ans, err := m.QueryPartial(`select x from x in people`)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Complete {
		t.Fatalf("the breaker-refused replica must be dialed as a last resort; got residual %s", ans.Residual)
	}
	if !ans.Value.Equal(wantAll()) {
		t.Errorf("answer = %s, want %s", ans.Value, wantAll())
	}
}

// TestFailoverConcurrentQueries hammers a half-dead replicated extent from
// many goroutines; run under -race this is the failover path's data-race
// check, and every query must still see the full bag.
func TestFailoverConcurrentQueries(t *testing.T) {
	m, servers := replicatedMediator(t, WithBreaker(2, 100*time.Millisecond))
	servers["r0"].SetAvailable(false)
	want := wantAll()
	var wg sync.WaitGroup
	errs := make(chan error, 24)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				v, err := m.Query(`select x from x in people`)
				if err != nil {
					errs <- err
					return
				}
				if !v.Equal(want) {
					errs <- fmt.Errorf("got %s", v)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestFailoverEveryQueryWithoutBreaker: a primary that served traffic, so
// that routing's cost history prefers it, goes dark. With a breaker that
// can never open, a query that dials the dead primary first waits out its
// attempt share of the deadline, and every query must still complete via
// the replica.
func TestFailoverEveryQueryWithoutBreaker(t *testing.T) {
	m, servers := replicatedMediator(t, WithTimeout(400*time.Millisecond), WithBreaker(1<<30, time.Hour))
	const q = `select x from x in people`
	want := wantAll()
	for i := 0; i < 3; i++ {
		if _, err := m.Query(q); err != nil {
			t.Fatal(err)
		}
	}
	servers["r0"].SetAvailable(false)
	for i := 0; i < 3; i++ {
		v, err := m.Query(q)
		if err != nil {
			t.Fatalf("query %d after the primary went dark: %v", i, err)
		}
		if !v.Equal(want) {
			t.Fatalf("query %d: answer = %s, want %s", i, v, want)
		}
	}
	if got := m.BreakerState("r0"); got != BreakerClosed {
		t.Errorf("breaker for r0 = %v, want closed: the test must exercise the timeout path", got)
	}
}

// TestPrunedShardNeverDialsReplicas: partition pruning composes with
// replication — a point query touches exactly one copy of one shard, and
// the pruned shards' replicas are never dialed either.
func TestPrunedShardNeverDialsReplicas(t *testing.T) {
	m := New(WithTimeout(2 * time.Second))
	engines := map[string]*countingEngine{}
	var odl strings.Builder
	for shard := 0; shard < 4; shard++ {
		for _, suffix := range []string{"", "b"} {
			repo := fmt.Sprintf("r%d%s", shard, suffix)
			store := shardStore(t, nil)
			for id := 0; id < 32; id++ {
				if int(algebra.HashValue(types.Int(int64(id)))%4) != shard {
					continue
				}
				if err := store.Insert("people", types.Int(int64(id)), types.Str(fmt.Sprintf("p%d", id)), types.Int(int64(id))); err != nil {
					t.Fatal(err)
				}
			}
			engines[repo] = &countingEngine{inner: store}
			m.RegisterEngine(repo, engines[repo])
			fmt.Fprintf(&odl, "%s := Repository(address=%q);\n", repo, "mem:"+repo)
		}
	}
	odl.WriteString(`
		w0 := WrapperPostgres();
		interface Person (extent person) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent people of Person wrapper w0 at r0|r0b, r1|r1b, r2|r2b, r3|r3b
		    partition by hash(id);
	`)
	if err := m.ExecODL(odl.String()); err != nil {
		t.Fatal(err)
	}
	v, err := m.Query(`select x.name from x in people where x.id = 7`)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(types.NewBag(types.Str("p7"))) {
		t.Errorf("point query = %s", v)
	}
	total := 0
	for repo, e := range engines {
		n := e.count()
		total += n
		home := fmt.Sprintf("r%d", int(algebra.HashValue(types.Int(7))%4))
		if repo != home && n > 0 {
			t.Errorf("repo %s answered %d calls; only the home shard's primary %s should", repo, n, home)
		}
	}
	if total != 1 {
		t.Errorf("point query made %d source calls across all replicas, want exactly 1", total)
	}
}

// TestReplicaODLRoundTrip: a replicated, partitioned catalog dumps to ODL
// that reproduces itself — the replica groups and the scheme both survive.
func TestReplicaODLRoundTrip(t *testing.T) {
	m := New()
	for shard := 0; shard < 2; shard++ {
		for _, suffix := range []string{"", "b"} {
			repo := fmt.Sprintf("r%d%s", shard, suffix)
			m.RegisterEngine(repo, shardStore(t, nil))
		}
	}
	odlSrc := `
		r0 := Repository(address="mem:r0");
		r0b := Repository(address="mem:r0b");
		r1 := Repository(address="mem:r1");
		r1b := Repository(address="mem:r1b");
		w0 := WrapperPostgres();
		interface Person (extent person) {
		    attribute Short id;
		    attribute String name;
		    attribute Short salary;
		}
		extent people of Person wrapper w0 at r0|r0b, r1|r1b
		    partition by hash(id);
	`
	if err := m.ExecODL(odlSrc); err != nil {
		t.Fatal(err)
	}
	dump := m.DumpODL()
	if !strings.Contains(dump, "at r0|r0b, r1|r1b") {
		t.Fatalf("dump misses replica groups:\n%s", dump)
	}
	m2 := New()
	if err := m2.ExecODL(dump); err != nil {
		t.Fatalf("dump does not re-apply: %v\n%s", err, dump)
	}
	if dump2 := m2.DumpODL(); dump2 != dump {
		t.Errorf("round trip not stable:\n--- first ---\n%s\n--- second ---\n%s", dump, dump2)
	}
	me, err := m2.Catalog().Extent("people")
	if err != nil || !me.Replicated() || me.Scheme == nil {
		t.Errorf("replicas or scheme lost: %+v, %v", me, err)
	}
}

// TestCallerCancelDoesNotTripBreaker: a cancelled caller must produce a
// plain error — not an unavailability — and leave the circuit breaker
// untouched however often it happens (the poisoning bug this PR fixes).
func TestCallerCancelDoesNotTripBreaker(t *testing.T) {
	m, _ := replicatedMediator(t, WithBreaker(2, time.Minute))
	me, err := m.Catalog().Extent("people")
	if err != nil {
		t.Fatal(err)
	}
	expr := &algebra.Get{Ref: m.Catalog().PartitionRef(me, "r0")}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		_, err := m.submit(ctx, "r0", expr)
		if err == nil {
			t.Fatal("submit with a cancelled caller context should fail")
		}
		var ue *physical.UnavailableError
		if errors.As(err, &ue) {
			t.Fatalf("caller cancellation classified as unavailability: %v", err)
		}
	}
	if got := m.BreakerState("r0"); got != BreakerClosed {
		t.Errorf("breaker for r0 = %v after caller cancellations, want closed (not poisoned)", got)
	}
	if got := m.BreakerState("r0b"); got != BreakerClosed {
		t.Errorf("breaker for r0b = %v, want closed", got)
	}
}
