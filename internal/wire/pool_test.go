package wire

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"disco/internal/types"
)

// TestPooledClientConcurrentRace: many goroutines share one pooled client
// against one server; every request must get its own answer (run under
// -race this is the pool's core correctness test).
func TestPooledClientConcurrentRace(t *testing.T) {
	s := newTestServer(t)
	c := NewClient(s.Addr())
	defer c.Close()

	const goroutines = 32
	const perG = 20
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*perG)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				q := fmt.Sprintf("g%d_i%d", g, i)
				raw, err := c.Query(ctx, LangSQL, q)
				cancel()
				if err != nil {
					errs <- err
					return
				}
				v, err := types.DecodeValue(raw)
				if err != nil {
					errs <- err
					return
				}
				if !v.Equal(types.Str("sql:" + q)) {
					errs <- fmt.Errorf("wrong answer %s for %s", v, q)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	conns, inflight := c.PoolStats()
	if conns == 0 || conns > DefaultPoolSize {
		t.Errorf("pool holds %d conns, want 1..%d", conns, DefaultPoolSize)
	}
	if inflight != 0 {
		t.Errorf("inflight = %d after all calls returned", inflight)
	}
}

// killableProxy forwards TCP bytes between clients and a backend, and can
// kill every live link mid-flight to simulate a broken connection.
type killableProxy struct {
	lis     net.Listener
	backend string

	mu    sync.Mutex
	conns []net.Conn
}

func newKillableProxy(t *testing.T, backend string) *killableProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &killableProxy{lis: lis, backend: backend}
	go p.acceptLoop()
	t.Cleanup(func() { lis.Close(); p.KillAll() })
	return p
}

func (p *killableProxy) Addr() string { return p.lis.Addr().String() }

func (p *killableProxy) acceptLoop() {
	for {
		client, err := p.lis.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		p.mu.Lock()
		p.conns = append(p.conns, client, server)
		p.mu.Unlock()
		go func() { io.Copy(server, client); server.Close() }()
		go func() { io.Copy(client, server); client.Close() }()
	}
}

// KillAll severs every live link.
func (p *killableProxy) KillAll() {
	p.mu.Lock()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// TestTransparentRedialAfterConnKill: killing the pooled connections under
// a live client must not surface to callers — the client evicts the broken
// connections, redials, and the request succeeds.
func TestTransparentRedialAfterConnKill(t *testing.T) {
	s := newTestServer(t)
	p := newKillableProxy(t, s.Addr())
	c := NewClient(p.Addr())
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, LangSQL, "warmup"); err != nil {
		t.Fatal(err)
	}
	if conns, _ := c.PoolStats(); conns != 1 {
		t.Fatalf("pool = %d conns after warmup", conns)
	}

	// Kill the established link; the next query must transparently redial.
	p.KillAll()
	raw, err := c.Query(ctx, LangSQL, "after-kill")
	if err != nil {
		t.Fatalf("query after conn kill: %v", err)
	}
	v, err := types.DecodeValue(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(types.Str("sql:after-kill")) {
		t.Errorf("answer = %s", v)
	}
}

// TestTransparentRedialUnderLoad: connections die repeatedly while many
// goroutines hammer the client; no caller may observe a transport error.
func TestTransparentRedialUnderLoad(t *testing.T) {
	s := newTestServer(t)
	p := newKillableProxy(t, s.Addr())
	c := NewClient(p.Addr())
	defer c.Close()

	stop := make(chan struct{})
	var killerWG sync.WaitGroup
	killerWG.Add(1)
	go func() {
		defer killerWG.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
				p.KillAll()
			}
		}
	}()

	var wg sync.WaitGroup
	var failures atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				_, err := c.Query(ctx, LangSQL, fmt.Sprintf("g%d_i%d", g, i))
				cancel()
				if err != nil {
					failures.Add(1)
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	killerWG.Wait()
	// A request can outlast dialAttempts kills in pathological schedules;
	// the point is that redial keeps the failure count near zero rather
	// than every post-kill request failing.
	if f := failures.Load(); f > 8 {
		t.Errorf("%d/80 requests failed despite transparent redial", f)
	}
}

// newRogueServer runs a raw TCP server that answers each decoded request
// with whatever the respond function fabricates — used to simulate
// misbehaving peers (wrong response IDs).
func newRogueServer(t *testing.T, respond func(req Request) Response) string {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lis.Close() })
	go func() {
		for {
			conn, err := lis.Accept()
			if err != nil {
				return
			}
			go func(conn net.Conn) {
				defer conn.Close()
				dec := json.NewDecoder(conn)
				enc := json.NewEncoder(conn)
				for {
					var req Request
					if err := dec.Decode(&req); err != nil {
						return
					}
					if err := enc.Encode(respond(req)); err != nil {
						return
					}
				}
			}(conn)
		}
	}()
	return lis.Addr().String()
}

// TestMismatchedResponseIDRejected: a frame whose ID matches no outstanding
// request must never be accepted as an answer — the stale frame is dropped
// and the caller times out instead of receiving someone else's answer.
func TestMismatchedResponseIDRejected(t *testing.T) {
	addr := newRogueServer(t, func(req Request) Response {
		return Response{ID: req.ID + 1000} // always the wrong ID
	})

	c := NewClient(addr)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	_, err := c.Do(ctx, Request{Op: "ping"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want deadline exceeded (stale frame dropped)", err)
	}
}

// TestPoolBounded: hammering the client never grows the pool past its
// configured size.
func TestPoolBounded(t *testing.T) {
	s := newTestServer(t)
	s.SetLatency(20 * time.Millisecond) // force real concurrency
	c := NewClient(s.Addr(), WithPoolSize(2))
	defer c.Close()

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if _, err := c.Query(ctx, LangSQL, fmt.Sprintf("q%d", g)); err != nil {
				t.Error(err)
			}
		}(g)
	}
	wg.Wait()
	if conns, _ := c.PoolStats(); conns > 2 {
		t.Errorf("pool grew to %d conns, bound is 2", conns)
	}
}

// TestIdleConnectionsReaped: a connection unused past the idle timeout is
// closed on the next acquisition; the request still succeeds on a fresh
// connection.
func TestIdleConnectionsReaped(t *testing.T) {
	s := newTestServer(t)
	c := NewClient(s.Addr(), WithIdleTimeout(50*time.Millisecond))
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, LangSQL, "warmup"); err != nil {
		t.Fatal(err)
	}
	if conns, _ := c.PoolStats(); conns != 1 {
		t.Fatalf("pool = %d conns after warmup", conns)
	}
	// The reap timer fires without any further traffic: the idle conn must
	// disappear on its own.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if conns, _ := c.PoolStats(); conns == 0 {
			break
		}
		if time.Now().After(deadline) {
			conns, _ := c.PoolStats()
			t.Fatalf("pool still holds %d conns long past the idle timeout", conns)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Query(ctx, LangSQL, "after-idle"); err != nil {
		t.Fatal(err)
	}
	// The reaped conn was replaced by the one serving the second query.
	if conns, _ := c.PoolStats(); conns != 1 {
		t.Errorf("pool = %d conns after reap+redial, want 1", conns)
	}
}

// TestClientClose: Close fails fast and unblocks nothing-left-behind.
func TestClientClose(t *testing.T) {
	s := newTestServer(t)
	c := NewClient(s.Addr())
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.Do(ctx, Request{Op: "ping"}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
	if conns, _ := c.PoolStats(); conns != 0 {
		t.Errorf("pool = %d conns after Close", conns)
	}
}

// TestMalformedFrameCountedAndIDEchoed: a malformed frame that still parses
// far enough to carry an ID gets that ID echoed in the error response, and
// the Malformed counter advances.
func TestMalformedFrameCountedAndIDEchoed(t *testing.T) {
	s := newTestServer(t)
	conn, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	// Valid JSON, wrong field type: Request unmarshal fails, ID probe works.
	if _, err := conn.Write([]byte(`{"id":42,"op":7}` + "\n")); err != nil {
		t.Fatal(err)
	}
	var resp Response
	if err := json.NewDecoder(conn).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 42 {
		t.Errorf("error response carries id %d, want 42", resp.ID)
	}
	if !strings.Contains(resp.Err, "malformed") {
		t.Errorf("err = %q", resp.Err)
	}
	if got := s.Stats().Malformed.Load(); got != 1 {
		t.Errorf("Malformed = %d, want 1", got)
	}
	// Unparseable garbage still answers (ID 0) and counts.
	conn2, err := net.Dial("tcp", s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if err := conn2.SetDeadline(time.Now().Add(2 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Write([]byte("not json at all\n")); err != nil {
		t.Fatal(err)
	}
	var resp2 Response
	if err := json.NewDecoder(conn2).Decode(&resp2); err != nil {
		t.Fatal(err)
	}
	if resp2.ID != 0 || !strings.Contains(resp2.Err, "malformed") {
		t.Errorf("resp = %+v", resp2)
	}
	if got := s.Stats().Malformed.Load(); got != 2 {
		t.Errorf("Malformed = %d, want 2", got)
	}
}

// TestPerRequestAvailability: SetAvailable applies per request — a request
// dispatched while the server is down is swallowed even if the server comes
// back before the deadline of a later request on the same connection.
func TestPerRequestAvailability(t *testing.T) {
	s := newTestServer(t)
	c := NewClient(s.Addr(), WithPoolSize(1))
	defer c.Close()

	// Warm the connection.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := c.Ping(ctx); err != nil {
		t.Fatal(err)
	}

	s.SetAvailable(false)
	downCtx, downCancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer downCancel()
	if _, err := c.Query(downCtx, LangSQL, "swallowed"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("down request: err = %v, want deadline exceeded", err)
	}

	// Same pooled connection, server back up: answers again.
	s.SetAvailable(true)
	if _, err := c.Query(ctx, LangSQL, "alive"); err != nil {
		t.Fatalf("after recovery on same conn: %v", err)
	}
	if conns, _ := c.PoolStats(); conns != 1 {
		t.Errorf("pool = %d conns, want the same single conn", conns)
	}
}

// blackholeProxy forwards TCP bytes between clients and a backend and can
// start silently discarding traffic while keeping connections open — the
// half-open-connection failure mode that only a health check can discover
// (nothing errors, nothing closes; the peer just never answers again).
type blackholeProxy struct {
	lis     net.Listener
	backend string
	drop    atomic.Bool
}

func newBlackholeProxy(t *testing.T, backend string) *blackholeProxy {
	t.Helper()
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	p := &blackholeProxy{lis: lis, backend: backend}
	go p.acceptLoop()
	t.Cleanup(func() { lis.Close() })
	return p
}

func (p *blackholeProxy) Addr() string { return p.lis.Addr().String() }

func (p *blackholeProxy) acceptLoop() {
	for {
		client, err := p.lis.Accept()
		if err != nil {
			return
		}
		server, err := net.Dial("tcp", p.backend)
		if err != nil {
			client.Close()
			continue
		}
		forward := func(dst, src net.Conn) {
			buf := make([]byte, 4096)
			for {
				n, err := src.Read(buf)
				if n > 0 && !p.drop.Load() {
					if _, werr := dst.Write(buf[:n]); werr != nil {
						return
					}
				}
				if err != nil {
					return
				}
			}
		}
		go forward(server, client)
		go forward(client, server)
	}
}

// TestHealthCheckEvictsDeadIdleConnection: a connection whose peer goes
// silent (open socket, no answers) must be discovered by the idle health
// ping and evicted before any caller borrows it — and the next request
// must succeed on a fresh dial once the path heals.
func TestHealthCheckEvictsDeadIdleConnection(t *testing.T) {
	s := newTestServer(t)
	p := newBlackholeProxy(t, s.Addr())
	c := NewClient(p.Addr(),
		WithIdleTimeout(time.Minute), // idle reaping must not be the one evicting
		WithHealthCheckInterval(40*time.Millisecond))
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, LangSQL, "warmup"); err != nil {
		t.Fatal(err)
	}
	if conns, _ := c.PoolStats(); conns != 1 {
		t.Fatalf("pool = %d conns after warmup", conns)
	}

	// The peer goes silent: the connection stays open but answers nothing.
	p.drop.Store(true)
	deadline := time.Now().Add(3 * time.Second)
	for {
		if conns, _ := c.PoolStats(); conns == 0 {
			break
		}
		if time.Now().After(deadline) {
			conns, _ := c.PoolStats()
			t.Fatalf("health check never evicted the dead connection (pool = %d)", conns)
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Path healed: the next query dials fresh and succeeds without the
	// caller ever having seen the dead connection.
	p.drop.Store(false)
	raw, err := c.Query(ctx, LangSQL, "after-heal")
	if err != nil {
		t.Fatalf("query after heal: %v", err)
	}
	v, err := types.DecodeValue(raw)
	if err != nil {
		t.Fatal(err)
	}
	if !v.Equal(types.Str("sql:after-heal")) {
		t.Errorf("answer = %s", v)
	}
}

// TestHealthCheckKeepsLiveConnection: a healthy idle connection must
// survive health checks (no false-positive eviction) while remaining
// subject to the idle timeout — pings must not refresh the idle clock.
func TestHealthCheckKeepsLiveConnection(t *testing.T) {
	s := newTestServer(t)
	c := NewClient(s.Addr(),
		WithIdleTimeout(450*time.Millisecond),
		WithHealthCheckInterval(40*time.Millisecond))
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Query(ctx, LangSQL, "warmup"); err != nil {
		t.Fatal(err)
	}
	// Well inside the idle timeout, across several health-check periods,
	// the connection must still be there.
	time.Sleep(200 * time.Millisecond)
	if conns, _ := c.PoolStats(); conns != 1 {
		t.Fatalf("healthy idle conn evicted by health checks (pool = %d)", conns)
	}
	// And the idle timeout still applies even though pings kept succeeding.
	deadline := time.Now().Add(3 * time.Second)
	for {
		if conns, _ := c.PoolStats(); conns == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("pinged connection never idled out; health checks must not refresh the idle clock")
		}
		time.Sleep(20 * time.Millisecond)
	}
}
