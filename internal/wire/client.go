package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Connection-pool defaults. A mediator talks to each source over a small
// set of long-lived connections; requests multiplex over them and are
// matched back to callers by request ID, so one slow request never
// head-of-line-blocks the others.
const (
	// DefaultPoolSize is the maximum number of live connections a Client
	// keeps per address.
	DefaultPoolSize = 4
	// DefaultIdleTimeout is how long an unused connection survives before
	// the pool reaps it.
	DefaultIdleTimeout = 60 * time.Second
	// DefaultHealthInterval is how long a pooled connection may sit idle
	// before the pool pings it. Health checks discover dead connections
	// (half-open TCP, unresponsive peers) while they idle, so a borrower
	// is not the one to find out.
	DefaultHealthInterval = 15 * time.Second
	// maxFrameBytes bounds one protocol frame (shared with the server's
	// read buffer).
	maxFrameBytes = 64 * 1024 * 1024
	// dialAttempts is how many times Do transparently redials after a
	// pooled connection breaks under a request.
	dialAttempts = 3
)

// ErrClientClosed is returned by calls on a Client after Close.
var ErrClientClosed = errors.New("wire: client closed")

// Client issues wire requests to one server address. By default it keeps a
// bounded pool of persistent connections and multiplexes concurrent
// requests over them: responses are matched to callers by request ID,
// broken connections are evicted and redialed transparently, and idle
// connections are reaped.
//
// A Client is safe for concurrent use and is meant to be shared: the
// mediator keeps one per repository address.
type Client struct {
	addr           string
	nextID         atomic.Int64
	poolSize       int
	idleTimeout    time.Duration
	healthInterval time.Duration

	stats ClientStats

	mu        sync.Mutex
	cond      *sync.Cond // signaled when conns/dialing change
	conns     []*clientConn
	dialing   int // dials in flight, reserved against poolSize
	reapTimer *time.Timer
	closed    bool

	// connWG and pingWG track the pool's background goroutines — one
	// readLoop per pooled connection, plus in-flight health pings — so
	// Close drains them instead of letting them outlive the pool. Both
	// Add under c.mu with closed checked, so no Add can race Close's
	// Wait.
	connWG sync.WaitGroup
	pingWG sync.WaitGroup
}

// ClientStats counts request-abandonment traffic on the client side of the
// cancellation protocol. The counters are best-effort (a teardown racing a
// caller's own abandonment may count the same request once from each
// side); they answer "is abandoned work being reported to the server", not
// "exactly how much".
type ClientStats struct {
	// Abandoned counts in-flight requests the client walked away from: the
	// caller's context ended before the response arrived, or the pool tore
	// the connection down (Close, idle reap, transport failure) with
	// requests still pending on it.
	Abandoned atomic.Int64
	// CancelsSent counts best-effort cancel frames successfully written
	// for abandoned requests, telling the server to stop working on them.
	CancelsSent atomic.Int64
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithPoolSize bounds the number of live connections the client keeps.
func WithPoolSize(n int) ClientOption {
	return func(c *Client) {
		if n > 0 {
			c.poolSize = n
		}
	}
}

// WithIdleTimeout sets how long an idle pooled connection survives.
func WithIdleTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.idleTimeout = d
		}
	}
}

// WithHealthCheckInterval sets how long a connection may idle before the
// pool pings it (and how long that ping may take before the connection is
// declared dead and evicted). d <= 0 disables health checks — for peers
// whose legitimate response time exceeds any sensible ping deadline.
func WithHealthCheckInterval(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.healthInterval = d
		} else {
			c.healthInterval = 0
		}
	}
}

// NewClient returns a client for the given server address.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{
		addr:           addr,
		poolSize:       DefaultPoolSize,
		idleTimeout:    DefaultIdleTimeout,
		healthInterval: DefaultHealthInterval,
	}
	for _, o := range opts {
		o(c)
	}
	c.cond = sync.NewCond(&c.mu)
	return c
}

// Addr returns the target address.
func (c *Client) Addr() string { return c.addr }

// Stats exposes the client's abandonment counters.
func (c *Client) Stats() *ClientStats { return &c.stats }

// stampDeadline copies the context's remaining budget onto the request as
// a relative millisecond count, rounded up so any positive remaining
// budget encodes as at least 1 (a sub-millisecond budget must not read as
// "no deadline" at the server). A spent budget stamps -1: the server
// rejects it as expired-on-arrival, which is also what the caller's own
// ctx.Err() check is about to conclude.
func stampDeadline(ctx context.Context, req *Request) {
	dl, ok := ctx.Deadline()
	if !ok {
		return
	}
	rem := time.Until(dl)
	if rem <= 0 {
		req.DeadlineMillis = -1
		return
	}
	req.DeadlineMillis = (int64(rem) + int64(time.Millisecond) - 1) / int64(time.Millisecond)
}

// Close tears down the pool. In-flight requests fail; subsequent calls
// return ErrClientClosed.
func (c *Client) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	conns := c.conns
	c.conns = nil
	if c.reapTimer != nil {
		c.reapTimer.Stop()
		c.reapTimer = nil
	}
	c.cond.Broadcast()
	c.mu.Unlock()
	for _, cc := range conns {
		cc.shutdown(ErrClientClosed)
	}
	// Drain the pool's background goroutines: shutdown closed every
	// conn's socket (unblocking its readLoop) and its done channel
	// (unblocking any in-flight health ping), so both Waits are prompt.
	c.connWG.Wait()
	c.pingWG.Wait()
}

// PoolStats reports the pool's live connection count and total in-flight
// requests (tests and monitoring).
func (c *Client) PoolStats() (conns, inflight int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, cc := range c.conns {
		inflight += int(cc.inflight.Load())
	}
	return len(c.conns), inflight
}

// Do sends one request and waits for the response carrying the same ID,
// honoring the context deadline both for dialing and for the exchange. A
// deadline exceeded error is how callers observe unavailable sources. If a
// pooled connection breaks under the request, Do redials and retries
// transparently (requests are queries — reads — so a retry is safe).
func (c *Client) Do(ctx context.Context, req Request) (*Response, error) {
	req.ID = c.nextID.Add(1)
	var lastErr error
	for attempt := 0; attempt < dialAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("wire: %s: %w", c.addr, err)
		}
		// Re-stamped per attempt: a redial after a broken connection ships
		// the budget that actually remains, not the one at first send.
		stampDeadline(ctx, &req)
		cc, err := c.conn(ctx)
		if err != nil {
			return nil, err
		}
		resp, err := cc.roundTrip(ctx, &req, true)
		cc.leased.Add(-1)
		if err == nil {
			if resp.ID != req.ID {
				// Matching is by pending-map key, so this cannot fire
				// unless the transport is corrupted; reject rather than
				// hand a stray frame to the caller.
				return nil, fmt.Errorf("wire: %s: response id %d does not match request id %d", c.addr, resp.ID, req.ID)
			}
			if resp.Code == CodeOverloaded {
				// The server shed the request at an in-flight cap: a typed
				// error, so callers can tell "shed by a live server" from
				// both "source down" and "query failed".
				return nil, &OverloadedError{Addr: c.addr, Msg: resp.Err}
			}
			if resp.Code == CodeExpired {
				// The server judged the propagated budget spent before the
				// handler ran. Surface it as the deadline error the caller's
				// own context is about to (or already did) report, not as a
				// remote query failure.
				return nil, fmt.Errorf("wire: %s: %w (rejected by server: %s)", c.addr, context.DeadlineExceeded, resp.Err)
			}
			return resp, nil
		}
		var broken *brokenConnError
		if errors.As(err, &broken) {
			lastErr = broken.err
			continue // the conn was evicted; redial on the next attempt
		}
		return nil, err
	}
	return nil, fmt.Errorf("wire: %s: connection broke repeatedly: %w", c.addr, lastErr)
}

// conn returns the least-loaded pooled connection, dialing a new one when
// every existing connection is busy and the pool has room (in-flight dials
// count against the bound). When the pool is at capacity with every slot
// mid-dial, it waits for a dial to land. It also reaps connections that
// have sat idle past the idle timeout.
func (c *Client) conn(ctx context.Context) (*clientConn, error) {
	// Wake waiters if the context dies while they block on the cond.
	defer context.AfterFunc(ctx, func() { c.cond.Broadcast() })()

	c.mu.Lock()
	for {
		if c.closed {
			c.mu.Unlock()
			return nil, ErrClientClosed
		}
		if err := ctx.Err(); err != nil {
			c.mu.Unlock()
			return nil, fmt.Errorf("wire: %s: %w", c.addr, err)
		}
		c.reapLocked(time.Now())
		var best, probed *clientConn
		for _, cc := range c.conns {
			if cc.pinging.Load() {
				// A health ping is probing this connection: its verdict is
				// pending, so prefer any alternative (another connection, a
				// fresh dial). It remains the last resort below.
				if probed == nil || cc.inflight.Load() < probed.inflight.Load() {
					probed = cc
				}
				continue
			}
			if best == nil || cc.inflight.Load() < best.inflight.Load() {
				best = cc
			}
		}
		if best != nil && (best.inflight.Load() == 0 || len(c.conns)+c.dialing >= c.poolSize) {
			best.leased.Add(1)
			best.touch()
			c.mu.Unlock()
			return best, nil
		}
		if len(c.conns)+c.dialing < c.poolSize {
			c.dialing++
			break
		}
		if probed != nil {
			// The pool is saturated and every usable connection is under a
			// ping: ride one anyway rather than stall for the ping verdict.
			// The lease spares the connection from a failing ping's kill, so
			// the request's own deadline judges it.
			probed.leased.Add(1)
			probed.touch()
			c.mu.Unlock()
			return probed, nil
		}
		// Every slot is an in-flight dial and no established connection is
		// usable yet: wait for a dial to complete (or the pool to change).
		c.cond.Wait()
	}
	c.mu.Unlock()

	var d net.Dialer
	nc, err := d.DialContext(ctx, "tcp", c.addr)
	c.mu.Lock()
	c.dialing--
	if err != nil {
		c.cond.Broadcast()
		c.mu.Unlock()
		return nil, fmt.Errorf("wire: dial %s: %w", c.addr, wrapCtx(ctx, err))
	}
	if c.closed {
		c.cond.Broadcast()
		c.mu.Unlock()
		nc.Close()
		return nil, ErrClientClosed
	}
	cc := &clientConn{
		c:       c,
		nc:      nc,
		pending: make(map[int64]chan *Response),
		done:    make(chan struct{}),
	}
	cc.leased.Add(1)
	cc.touch()
	c.conns = append(c.conns, cc)
	c.scheduleReapLocked()
	c.cond.Broadcast()
	c.connWG.Add(1) // under c.mu, after the closed check: Close will wait
	c.mu.Unlock()
	go cc.readLoop()
	return cc, nil
}

// reapLocked closes pooled connections idle past the idle timeout. Called
// with c.mu held.
func (c *Client) reapLocked(now time.Time) {
	keep := c.conns[:0]
	for _, cc := range c.conns {
		if cc.inflight.Load() == 0 && now.Sub(cc.lastUsed()) > c.idleTimeout {
			cc.shutdown(errors.New("wire: idle connection reaped"))
			continue
		}
		keep = append(keep, cc)
	}
	if len(keep) != len(c.conns) {
		c.conns = keep
		c.cond.Broadcast()
	}
}

// scheduleReapLocked arms a timer that reaps idle connections even when no
// further request arrives to trigger reaping on acquisition — a client
// that goes quiet must not pin sockets (and the server-side goroutines
// behind them) forever. The same timer drives idle health checks, so it
// fires at the finer of the two cadences. One timer at a time; it rearms
// itself while connections remain. Called with c.mu held.
func (c *Client) scheduleReapLocked() {
	if c.closed || c.reapTimer != nil || len(c.conns) == 0 {
		return
	}
	period := c.idleTimeout
	if c.healthInterval > 0 && c.healthInterval < period {
		period = c.healthInterval
	}
	c.reapTimer = time.AfterFunc(period/2, c.reapTick)
}

func (c *Client) reapTick() {
	c.mu.Lock()
	c.reapTimer = nil
	if !c.closed {
		now := time.Now()
		c.reapLocked(now)
		c.healthCheckLocked(now)
		c.scheduleReapLocked()
	}
	c.mu.Unlock()
}

// healthCheckLocked pings connections that have idled past the health
// interval, so a dead connection (half-open TCP, hung peer) is discovered
// and evicted on the reap cadence instead of by the next borrower. Pings
// run off the lock, one at a time per connection; a connection with
// requests in flight is proving its own liveness and is skipped. Called
// with c.mu held.
func (c *Client) healthCheckLocked(now time.Time) {
	if c.healthInterval <= 0 {
		return
	}
	for _, cc := range c.conns {
		if cc.inflight.Load() != 0 || cc.leased.Load() != 0 || now.Sub(cc.lastUsed()) < c.healthInterval {
			continue
		}
		if !cc.pinging.CompareAndSwap(false, true) {
			continue
		}
		// Add under c.mu (reapTick checked closed), Done in the launcher —
		// not in pingConn, which tests also call synchronously.
		c.pingWG.Add(1)
		go func() {
			defer c.pingWG.Done()
			c.pingConn(cc)
		}()
	}
}

// pingConn round-trips one ping on a pooled connection. Failure — timeout
// included — kills and evicts the connection; the next borrower dials
// fresh instead of inheriting a dead socket. The ping does not refresh the
// idle clock: a connection nobody borrows must still age out. While the
// ping runs, conn() refuses to hand the connection out (and waiters are
// woken when the verdict lands), so a kill can only hit a connection no
// borrower holds — leases granted before the ping started disarm it.
func (c *Client) pingConn(cc *clientConn) {
	defer func() {
		cc.pinging.Store(false)
		// Wake borrowers that skipped this connection while it was probed.
		c.mu.Lock()
		c.cond.Broadcast()
		c.mu.Unlock()
	}()
	//lint:allow ctxflow background health ping with no caller: the reap timer launches it, bounded by the health interval
	ctx, cancel := context.WithTimeout(context.Background(), c.healthInterval)
	defer cancel()
	req := Request{ID: c.nextID.Add(1), Op: "ping"}
	// Any response frame proves the peer alive; an application-level error
	// (a server without a ping handler) is still an answer.
	if _, err := cc.roundTrip(ctx, &req, false); err != nil {
		if cc.inflight.Load() > 0 || cc.leased.Load() > 0 {
			// A real request boarded the connection before the ping's
			// verdict (a slow-but-live peer can outlast the ping deadline):
			// let that request's own deadline judge the connection instead
			// of killing it — and the rider with it — on the ping's say-so.
			return
		}
		cc.fail(fmt.Errorf("wire: health check %s: %w", c.addr, err))
	}
}

// remove evicts a dead connection from the pool.
func (c *Client) remove(cc *clientConn) {
	c.mu.Lock()
	for i, x := range c.conns {
		if x == cc {
			c.conns = append(c.conns[:i], c.conns[i+1:]...)
			c.cond.Broadcast()
			break
		}
	}
	c.mu.Unlock()
}

// brokenConnError marks transport failures on a pooled connection that make
// the request eligible for a transparent retry on a fresh connection.
type brokenConnError struct {
	err error
}

func (e *brokenConnError) Error() string { return fmt.Sprintf("wire: connection broken: %v", e.err) }
func (e *brokenConnError) Unwrap() error { return e.err }

// clientConn is one pooled connection: a single TCP stream shared by many
// in-flight requests, with a persistent read loop (one scanner and buffer
// per connection, not per call) that routes response frames to waiters by
// request ID.
type clientConn struct {
	c  *Client
	nc net.Conn

	writeMu sync.Mutex // serializes frame writes

	inflight atomic.Int64
	// leased counts borrowers between conn() handing the connection out and
	// their roundTrip returning. It covers the window before the borrower's
	// request registers in inflight, so a concurrently failing health ping
	// can never kill a connection a borrower is already holding.
	leased  atomic.Int64
	lastUse atomic.Int64 // unix nanos of last acquisition/completion
	pinging atomic.Bool  // a health ping is in flight

	mu      sync.Mutex
	pending map[int64]chan *Response
	closed  bool
	err     error

	done chan struct{} // closed by shutdown, after err is set
}

func (cc *clientConn) touch()              { cc.lastUse.Store(time.Now().UnixNano()) }
func (cc *clientConn) lastUsed() time.Time { return time.Unix(0, cc.lastUse.Load()) }

// shutdown marks the connection dead and unblocks every waiter. It does not
// touch the pool's connection list (fail does). Requests still pending on
// the connection are abandoned: before the socket closes, each gets a
// best-effort cancel frame so a deliberate teardown (Client.Close, idle
// reap) tells the server to stop the work instead of silently orphaning it.
// (Idle reaping only touches connections with zero in-flight requests, so
// its teardowns write nothing; the frames matter for Close and for
// transport failures, where the write usually fails and the server's
// connection-death path cancels the same handlers.)
func (cc *clientConn) shutdown(err error) {
	cc.mu.Lock()
	if cc.closed {
		cc.mu.Unlock()
		return
	}
	cc.closed = true
	cc.err = err
	orphans := make([]int64, 0, len(cc.pending))
	for id := range cc.pending {
		orphans = append(orphans, id)
	}
	cc.mu.Unlock()
	if len(orphans) > 0 {
		cc.c.stats.Abandoned.Add(int64(len(orphans)))
		cc.sendCancels(orphans)
	}
	cc.nc.Close()
	close(cc.done)
}

// fail is eviction from the pool plus shutdown. Eviction comes first: a
// connection marked closed but still pooled would be handed by conn() to
// every retry of the request that broke it, each failing at once, and the
// transparent redial would give up before it ever dialled.
func (cc *clientConn) fail(err error) {
	cc.c.remove(cc)
	cc.shutdown(err)
}

// roundTrip registers the request, writes its frame, and waits for the
// matching response, the context, or the connection's death — whichever
// comes first. refreshIdle marks real traffic: health pings pass false so
// probing an idle connection does not reset its idle clock (a connection
// nobody borrows must still reach the idle timeout and be reaped).
func (cc *clientConn) roundTrip(ctx context.Context, req *Request, refreshIdle bool) (*Response, error) {
	ch := make(chan *Response, 1)
	cc.mu.Lock()
	if cc.closed {
		err := cc.err
		cc.mu.Unlock()
		return nil, &brokenConnError{err: err}
	}
	cc.pending[req.ID] = ch
	cc.mu.Unlock()
	cc.inflight.Add(1)
	defer func() {
		cc.mu.Lock()
		delete(cc.pending, req.ID)
		cc.mu.Unlock()
		cc.inflight.Add(-1)
		if refreshIdle {
			cc.touch()
		}
	}()

	buf, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("wire: marshal: %w", err)
	}
	buf = append(buf, '\n')
	cc.writeMu.Lock()
	if deadline, ok := ctx.Deadline(); ok {
		_ = cc.nc.SetWriteDeadline(deadline)
	} else {
		_ = cc.nc.SetWriteDeadline(time.Time{})
	}
	n, werr := cc.nc.Write(buf)
	cc.writeMu.Unlock()
	if werr != nil {
		var ne net.Error
		if n == 0 && (ctx.Err() != nil || (errors.As(werr, &ne) && ne.Timeout())) {
			// Nothing left the buffer and the failure is the caller's own
			// deadline — either ctx already expired, or the mirrored
			// socket write deadline fired a moment before ctx.Err() flips
			// (wrapCtx maps that skew to DeadlineExceeded). The stream is
			// still correctly framed, so the connection shared with other
			// in-flight requests stays up.
			return nil, fmt.Errorf("wire: %s: %w", cc.c.addr, wrapCtx(ctx, werr))
		}
		// A partial write leaves the stream unframed for every request
		// sharing it, and a zero-byte network failure means the transport
		// is gone: kill the connection either way.
		cc.fail(fmt.Errorf("wire: write %s: %w", cc.c.addr, werr))
		if ctx.Err() != nil {
			return nil, fmt.Errorf("wire: %s: %w", cc.c.addr, ctx.Err())
		}
		return nil, &brokenConnError{err: werr}
	}
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		// The request stays written; the pending entry is dropped by the
		// deferred cleanup, so a late response frame is discarded as stale
		// rather than matched to a future request. A best-effort cancel
		// frame tells the server to stop working on it — this is the hedge
		// loser, timed-out caller, and abandoned-call path.
		cc.abandon(req.ID)
		return nil, fmt.Errorf("wire: %s: %w", cc.c.addr, ctx.Err())
	case <-cc.done:
		return nil, &brokenConnError{err: cc.err}
	}
}

// abandon notes that the caller walked away from an in-flight request and
// tells the server — asynchronously, so the abandoning caller's error
// return is not held up behind the connection's write lock.
func (cc *clientConn) abandon(id int64) {
	cc.c.stats.Abandoned.Add(1)
	//lint:allow gotrack fire-and-forget by design: a best-effort cancel frame bounded by a short write deadline; the server's connection-death path covers the loss
	go cc.sendCancels([]int64{id})
}

// sendCancels writes fire-and-forget cancel frames for abandoned request
// IDs, all in one write so a teardown with many pending requests costs one
// syscall. Best-effort: a short write deadline bounds the attempt, and a
// failure (the connection is usually dying at this point) is not reported
// — the server's own connection-death path cancels the same handlers.
func (cc *clientConn) sendCancels(ids []int64) {
	buf := make([]byte, 0, 32*len(ids))
	for _, id := range ids {
		b, err := json.Marshal(Request{ID: id, Op: OpCancel})
		if err != nil {
			return
		}
		buf = append(buf, b...)
		buf = append(buf, '\n')
	}
	cc.writeMu.Lock()
	_ = cc.nc.SetWriteDeadline(time.Now().Add(time.Second))
	_, werr := cc.nc.Write(buf)
	cc.writeMu.Unlock()
	if werr == nil {
		cc.c.stats.CancelsSent.Add(int64(len(ids)))
	}
}

// readLoop is the connection's demultiplexer: it owns the read side and its
// buffers for the connection's whole life and hands each response frame to
// the waiter registered under the frame's ID. Frames with no waiter (the
// caller gave up, or the server misbehaved) are dropped, never delivered to
// the wrong request.
func (cc *clientConn) readLoop() {
	defer cc.c.connWG.Done()
	r := bufio.NewReaderSize(cc.nc, 64*1024)
	for {
		line, err := readFrame(r)
		if err != nil {
			cc.fail(fmt.Errorf("wire: read %s: %w", cc.c.addr, err))
			return
		}
		var resp Response
		if err := json.Unmarshal(line, &resp); err != nil {
			cc.fail(fmt.Errorf("wire: %s: decode response: %w", cc.c.addr, err))
			return
		}
		cc.mu.Lock()
		ch, ok := cc.pending[resp.ID]
		if ok {
			delete(cc.pending, resp.ID)
		}
		cc.mu.Unlock()
		if ok {
			rr := resp
			ch <- &rr
		}
	}
}

// readFrame reads one newline-terminated frame, bounded by maxFrameBytes.
// A connection that dies mid-frame reports io.ErrUnexpectedEOF — a frame
// without its terminator is a mid-answer drop, not a (truncated) answer,
// and must never reach the JSON decoder looking like in-stream garbage:
// the two classify differently (transient vs plain failure).
func readFrame(r *bufio.Reader) ([]byte, error) {
	var frame []byte
	for {
		chunk, err := r.ReadSlice('\n')
		frame = append(frame, chunk...)
		switch err {
		case nil:
			return frame[:len(frame)-1], nil
		case bufio.ErrBufferFull:
			if len(frame) > maxFrameBytes {
				return nil, fmt.Errorf("frame exceeds %d bytes", maxFrameBytes)
			}
		case io.EOF:
			if len(frame) > 0 {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, io.EOF
		default:
			return nil, err
		}
	}
}

// Ping checks liveness within the context deadline.
func (c *Client) Ping(ctx context.Context) error {
	resp, err := c.Do(ctx, Request{Op: "ping"})
	if err != nil {
		return err
	}
	if resp.Err != "" {
		return fmt.Errorf("wire: ping: %s", resp.Err)
	}
	return nil
}

// Query executes a query in the named language and returns the raw tagged
// value payload. A partially-answering mediator surfaces as a
// *PartialUpstreamError carrying its residual query.
func (c *Client) Query(ctx context.Context, lang, text string) (json.RawMessage, error) {
	resp, err := c.Do(ctx, Request{Op: "query", Lang: lang, Text: text})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, &RemoteError{Addr: c.addr, Msg: resp.Err}
	}
	if resp.Residual != "" {
		return nil, &PartialUpstreamError{Addr: c.addr, Residual: resp.Residual, Unavailable: resp.Unavailable}
	}
	return resp.Value, nil
}

// Capability fetches the server's wrapper grammar text.
func (c *Client) Capability(ctx context.Context) (string, error) {
	resp, err := c.Do(ctx, Request{Op: "capability"})
	if err != nil {
		return "", err
	}
	if resp.Err != "" {
		return "", &RemoteError{Addr: c.addr, Msg: resp.Err}
	}
	return resp.Grammar, nil
}

// Versions fetches the server's per-collection data versions; nil when the
// source does not track them.
func (c *Client) Versions(ctx context.Context) (map[string]int64, error) {
	resp, err := c.Do(ctx, Request{Op: "versions"})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, &RemoteError{Addr: c.addr, Msg: resp.Err}
	}
	return resp.Versions, nil
}

// Collections fetches the server's collection names.
func (c *Client) Collections(ctx context.Context) ([]string, error) {
	resp, err := c.Do(ctx, Request{Op: "collections"})
	if err != nil {
		return nil, err
	}
	if resp.Err != "" {
		return nil, &RemoteError{Addr: c.addr, Msg: resp.Err}
	}
	return resp.Collections, nil
}

// RemoteError is an error reported by the remote server (as opposed to a
// transport failure).
type RemoteError struct {
	Addr string
	Msg  string
}

// Error implements the error interface.
func (e *RemoteError) Error() string { return fmt.Sprintf("wire: %s: %s", e.Addr, e.Msg) }

// OverloadedError reports that the server shed the request at one of its
// in-flight caps (CodeOverloaded). The server is alive — this is neither a
// transport failure nor a query error — and a retry moments later may be
// admitted; the mediator classifies it as a retryable transient.
type OverloadedError struct {
	Addr string
	Msg  string
}

// Error implements the error interface.
func (e *OverloadedError) Error() string {
	if e.Msg != "" {
		return fmt.Sprintf("wire: %s: %s", e.Addr, e.Msg)
	}
	return fmt.Sprintf("wire: %s: server overloaded", e.Addr)
}

// wrapCtx prefers the context's error (deadline, cancel) over the raw
// network error it caused, so callers can match context.DeadlineExceeded.
// The connection deadline is set from the context's, so a net timeout maps
// to DeadlineExceeded even when it fires a moment before ctx.Err() does.
func wrapCtx(ctx context.Context, err error) error {
	if ctx.Err() != nil {
		return fmt.Errorf("%w (%v)", ctx.Err(), err)
	}
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return fmt.Errorf("%w (%v)", context.DeadlineExceeded, err)
	}
	return err
}
