package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// blockingHandler parks every query on its context: the only way a request
// finishes is its ctx being cancelled (cancel frame, connection death,
// propagated deadline, server close). It records each invocation's context
// so tests can assert cancellation actually reached the handler.
type blockingHandler struct {
	mu      sync.Mutex
	ctxs    []context.Context
	started chan struct{} // one tick per invocation
}

func newBlockingHandler() *blockingHandler {
	return &blockingHandler{started: make(chan struct{}, 64)}
}

func (h *blockingHandler) HandleQuery(ctx context.Context, lang, text string) (json.RawMessage, error) {
	h.mu.Lock()
	h.ctxs = append(h.ctxs, ctx)
	h.mu.Unlock()
	h.started <- struct{}{}
	<-ctx.Done()
	return nil, ctx.Err()
}

func (h *blockingHandler) Capability() string    { return "a :- get OPEN SOURCE CLOSE" }
func (h *blockingHandler) Collections() []string { return nil }
func (h *blockingHandler) invocations() int      { h.mu.Lock(); defer h.mu.Unlock(); return len(h.ctxs) }
func (h *blockingHandler) contexts() []context.Context {
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]context.Context(nil), h.ctxs...)
}

// waitFor polls cond until it holds or the timeout lapses.
func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("condition not reached within %v: %s", timeout, msg)
}

// rawConn dials the server directly so tests can write hand-built frames
// (expired deadlines, cancel ops, abrupt hangups) that the Client would
// never produce on its own.
func rawConn(t *testing.T, addr string) (net.Conn, *bufio.Scanner) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	sc := bufio.NewScanner(conn)
	sc.Buffer(make([]byte, 0, 64*1024), maxFrameBytes)
	return conn, sc
}

func writeFrame(t *testing.T, conn net.Conn, req Request) {
	t.Helper()
	buf, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write(append(buf, '\n')); err != nil {
		t.Fatal(err)
	}
}

// TestExpiredOnArrivalRejected is the deadline-aware admission acceptance
// test: a request whose propagated budget is already spent is answered with
// CodeExpired, counted, and the handler is never invoked.
func TestExpiredOnArrivalRejected(t *testing.T) {
	h := newBlockingHandler()
	s, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, sc := rawConn(t, s.Addr())
	writeFrame(t, conn, Request{ID: 7, Op: "query", Lang: LangSQL, Text: "SELECT 1", DeadlineMillis: -1})
	if !sc.Scan() {
		t.Fatalf("no response frame: %v", sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 7 || resp.Code != CodeExpired || resp.Err == "" {
		t.Fatalf("resp = %+v, want id=7 code=%q", resp, CodeExpired)
	}
	if n := s.Stats().ExpiredOnArrival.Load(); n != 1 {
		t.Errorf("ExpiredOnArrival = %d, want 1", n)
	}
	if h.invocations() != 0 {
		t.Errorf("handler invoked %d times for an expired request", h.invocations())
	}
	if s.Inflight() != 0 {
		t.Errorf("inflight = %d after rejection", s.Inflight())
	}
}

// TestClientSideExpiredDeadline exercises the same rejection through the
// real client: a context that expires before the frame is stamped maps to
// DeadlineMillis=-1 and the caller sees a deadline error, not a remote one.
func TestClientSideExpiredDeadline(t *testing.T) {
	var req Request
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	stampDeadline(ctx, &req)
	if req.DeadlineMillis != -1 {
		t.Fatalf("DeadlineMillis = %d, want -1 for a spent budget", req.DeadlineMillis)
	}

	// A positive sub-millisecond budget must round up, never down to "no
	// deadline".
	req = Request{}
	ctx2, cancel2 := context.WithTimeout(context.Background(), 100*time.Microsecond)
	defer cancel2()
	stampDeadline(ctx2, &req)
	if req.DeadlineMillis < 1 && req.DeadlineMillis != -1 {
		t.Fatalf("DeadlineMillis = %d, want >=1 or -1 for a sub-millisecond budget", req.DeadlineMillis)
	}
}

// TestDeadlinePropagatesToHandler asserts the handler's context carries
// (approximately) the caller's remaining budget.
func TestDeadlinePropagatesToHandler(t *testing.T) {
	h := newBlockingHandler()
	s, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewClient(s.Addr())
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Query(ctx, LangSQL, "SELECT 1")
	if err == nil {
		t.Fatal("blocking handler answered?")
	}
	<-h.started
	ctxs := h.contexts()
	if len(ctxs) != 1 {
		t.Fatalf("handler invoked %d times, want 1", len(ctxs))
	}
	dl, ok := ctxs[0].Deadline()
	if !ok {
		t.Fatal("handler context has no deadline; propagation lost")
	}
	if rem := dl.Sub(start); rem <= 0 || rem > 400*time.Millisecond {
		t.Errorf("handler deadline %v from start, want within (0, 400ms]", rem)
	}
	// The handler unblocks when the propagated deadline fires (or the cancel
	// frame from the abandoning caller lands first), and the gauge drains.
	waitFor(t, time.Second, func() bool { return s.Inflight() == 0 }, "inflight drain after deadline")
}

// TestCancelFrameCancelsHandler sends an explicit cancel op for an in-flight
// request: the handler's context must be cancelled, the cancellation
// counted, and the response suppressed.
func TestCancelFrameCancelsHandler(t *testing.T) {
	h := newBlockingHandler()
	s, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, sc := rawConn(t, s.Addr())
	writeFrame(t, conn, Request{ID: 1, Op: "query", Lang: LangSQL, Text: "SELECT 1"})
	<-h.started
	if s.Inflight() != 1 {
		t.Fatalf("inflight = %d, want 1", s.Inflight())
	}
	writeFrame(t, conn, Request{ID: 1, Op: OpCancel})

	waitFor(t, time.Second, func() bool { return s.Inflight() == 0 }, "inflight drain after cancel frame")
	if n := s.Stats().Cancelled.Load(); n != 1 {
		t.Errorf("Cancelled = %d, want 1", n)
	}
	ctxs := h.contexts()
	if len(ctxs) != 1 || ctxs[0].Err() != context.Canceled {
		t.Errorf("handler ctx err = %v, want Canceled", ctxs[0].Err())
	}

	// The cancelled request's response is suppressed: a follow-up ping must
	// be the next (and only) frame on the wire.
	writeFrame(t, conn, Request{ID: 2, Op: "ping"})
	if !sc.Scan() {
		t.Fatalf("no ping response: %v", sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 2 {
		t.Errorf("next frame has id %d, want 2 (cancelled request's response not suppressed)", resp.ID)
	}
}

// TestConnDeathCancelsHandlers is the satellite regression test: a client
// hanging up with requests in flight must cancel every matching handler
// context instead of letting abandoned work run to completion.
func TestConnDeathCancelsHandlers(t *testing.T) {
	h := newBlockingHandler()
	s, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	conn, _ := rawConn(t, s.Addr())
	const n = 3
	for i := 1; i <= n; i++ {
		writeFrame(t, conn, Request{ID: int64(i), Op: "query", Lang: LangSQL, Text: fmt.Sprintf("q%d", i)})
	}
	for i := 0; i < n; i++ {
		<-h.started
	}
	if got := s.Inflight(); got != n {
		t.Fatalf("inflight = %d, want %d", got, n)
	}
	conn.Close() // client dies mid-query

	waitFor(t, time.Second, func() bool { return s.Inflight() == 0 }, "inflight drain after connection death")
	if got := s.Stats().Cancelled.Load(); got != n {
		t.Errorf("Cancelled = %d, want %d", got, n)
	}
	for i, ctx := range h.contexts() {
		if ctx.Err() != context.Canceled {
			t.Errorf("handler %d ctx err = %v, want Canceled", i, ctx.Err())
		}
	}
}

// TestClientCloseCancelsPending is the teardown satellite: Close with
// requests in flight abandons them, sends best-effort cancel frames, and
// the server stops the work.
func TestClientCloseCancelsPending(t *testing.T) {
	h := newBlockingHandler()
	s, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewClient(s.Addr())
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_, err := c.Query(ctx, LangSQL, "SELECT 1")
		done <- err
	}()
	<-h.started
	c.Close()

	if err := <-done; err == nil {
		t.Fatal("Query survived Close")
	}
	if n := c.Stats().Abandoned.Load(); n < 1 {
		t.Errorf("Abandoned = %d, want >= 1", n)
	}
	// The cancel reaches the server as a frame or, failing that, as the
	// connection dying; either way the handler is cancelled and the in-flight
	// gauge drains.
	waitFor(t, time.Second, func() bool { return s.Inflight() == 0 }, "inflight drain after client Close")
	if n := s.Stats().Cancelled.Load(); n < 1 {
		t.Errorf("server Cancelled = %d, want >= 1", n)
	}
}

// TestAbandonSendsCancelFrame covers the hedge-loser/timed-out-caller path:
// the caller's context ends mid-call, the client sends a cancel frame on the
// still-healthy connection, and the server reclaims the work while the
// connection keeps serving other requests.
func TestAbandonSendsCancelFrame(t *testing.T) {
	h := newBlockingHandler()
	s, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewClient(s.Addr())
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(ctx, LangSQL, "SELECT 1")
		done <- err
	}()
	<-h.started
	cancel() // the caller walks away; no deadline involved

	if err := <-done; err == nil {
		t.Fatal("Query survived its caller's cancel")
	}
	waitFor(t, time.Second, func() bool { return s.Inflight() == 0 }, "inflight drain after caller cancel")
	waitFor(t, time.Second, func() bool { return c.Stats().CancelsSent.Load() >= 1 }, "cancel frame sent")
	if n := s.Stats().Cancelled.Load(); n != 1 {
		t.Errorf("server Cancelled = %d, want 1", n)
	}
	// The connection survived the cancel: the next request rides the same
	// pool without redialing.
	ctx2, cancel2 := context.WithTimeout(context.Background(), time.Second)
	defer cancel2()
	if err := c.Ping(ctx2); err != nil {
		t.Fatalf("ping after abandon: %v", err)
	}
}

// holdHandler parks a query whose text is "hold" on its context, like
// blockingHandler, and answers every other query at once.
type holdHandler struct{ *blockingHandler }

func (h holdHandler) HandleQuery(ctx context.Context, lang, text string) (json.RawMessage, error) {
	if text == "hold" {
		return h.blockingHandler.HandleQuery(ctx, lang, text)
	}
	return json.RawMessage(`"ok"`), nil
}

// TestServerInflightCapShedsUntilAbandonReclaims: a server at its
// WithMaxServerInflight cap answers the next request with the overload
// frame, which the client surfaces as *OverloadedError; once the caller
// holding the slot walks away, its cancel frame frees the slot and the
// shed request, retried, is served.
func TestServerInflightCapShedsUntilAbandonReclaims(t *testing.T) {
	h := holdHandler{newBlockingHandler()}
	s, err := NewServer("127.0.0.1:0", h, WithMaxServerInflight(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	c := NewClient(s.Addr())
	defer c.Close()
	hold, abandon := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Query(hold, LangSQL, "hold")
		done <- err
	}()
	<-h.started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var oe *OverloadedError
	if _, err := c.Query(ctx, LangSQL, "SELECT 1"); !errors.As(err, &oe) {
		t.Fatalf("query past the server's cap: err = %v, want *OverloadedError", err)
	}
	if n := s.Stats().Shed.Load(); n != 1 {
		t.Errorf("server Shed = %d, want 1", n)
	}

	abandon()
	if err := <-done; err == nil {
		t.Fatal("held query survived its caller's cancel")
	}
	// The slot frees asynchronously after the cancel frame lands: until it
	// does, a retry may still be shed, but with nothing but the overload.
	waitFor(t, time.Second, func() bool {
		_, err := c.Query(ctx, LangSQL, "SELECT 1")
		if err != nil && !errors.As(err, &oe) {
			t.Fatalf("retry after abandon: %v", err)
		}
		return err == nil
	}, "retry served once the abandoned request's slot was reclaimed")
}

// TestCancelledRequestNotCounted makes sure a cancel for an unknown or
// already-completed ID is the benign race the protocol promises, not an
// error or a counter bump.
func TestCancelStaleIDIsBenign(t *testing.T) {
	s := newTestServer(t)
	conn, sc := rawConn(t, s.Addr())
	writeFrame(t, conn, Request{ID: 99, Op: OpCancel}) // never existed
	writeFrame(t, conn, Request{ID: 1, Op: "ping"})
	if !sc.Scan() {
		t.Fatalf("no response: %v", sc.Err())
	}
	var resp Response
	if err := json.Unmarshal(sc.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.ID != 1 || resp.Err != "" {
		t.Fatalf("resp = %+v, want clean ping answer", resp)
	}
	if n := s.Stats().Cancelled.Load(); n != 0 {
		t.Errorf("Cancelled = %d, want 0 for a stale cancel", n)
	}
}

// TestLatencySleepAbortsOnCancel asserts injected link latency does not
// delay reclamation: a cancel arriving while the request is "on the wire"
// aborts the sleep instead of waiting it out.
func TestLatencySleepAbortsOnCancel(t *testing.T) {
	h := newBlockingHandler()
	s, err := NewServer("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetLatency(2 * time.Second)

	conn, _ := rawConn(t, s.Addr())
	writeFrame(t, conn, Request{ID: 1, Op: "query", Lang: LangSQL, Text: "SELECT 1"})
	waitFor(t, time.Second, func() bool { return s.Inflight() == 1 }, "request in flight")
	start := time.Now()
	writeFrame(t, conn, Request{ID: 1, Op: OpCancel})
	waitFor(t, time.Second, func() bool { return s.Inflight() == 0 }, "inflight drain despite injected latency")
	if waited := time.Since(start); waited > 500*time.Millisecond {
		t.Errorf("drain took %v; cancel should abort the 2s latency sleep", waited)
	}
	if h.invocations() != 0 {
		t.Errorf("handler invoked %d times for a request cancelled on the wire", h.invocations())
	}
}
