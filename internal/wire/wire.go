// Package wire implements the network protocol between DISCO components
// (Figure 1): newline-delimited JSON frames over TCP. Data-source servers
// and mediator servers both speak it.
//
// Connections are persistent and multiplexed: a client keeps a bounded
// pool of long-lived connections per server, many requests share one
// connection in flight at a time, and the server executes each request on
// its own goroutine (writes serialized per connection), matching responses
// to requests by frame ID. One slow request therefore never head-of-line-
// blocks the requests pipelined behind it.
//
// The package also provides the fault injection the paper's unavailability
// semantics is about: a server can be made unavailable, in which case it
// accepts connections but never answers — exactly the "data source does not
// respond" behaviour that partial evaluation (§4) classifies by timeout —
// and can be given artificial latency to model wide-area links. Both apply
// per request, not per connection: requests already in flight when the
// server flips keep the semantics they started with.
//
// Cancellation and deadline propagation: a Request may carry the caller's
// remaining time budget (DeadlineMillis), and the protocol has a
// fire-and-forget "cancel" op whose ID names an earlier in-flight request.
// The server derives each handler's context from the propagated budget,
// rejects requests whose budget is already spent without invoking the
// handler (Stats.ExpiredOnArrival), and keeps a per-connection registry of
// in-flight request contexts so a cancel frame — or the connection dying —
// cancels the matching handlers (Stats.Cancelled). Clients send a cancel
// frame whenever a caller abandons an in-flight call (context done, pool
// teardown), so abandoned work is reclaimed at the source instead of
// running to completion for nobody.
package wire

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Query languages understood by data-source servers.
const (
	LangSQL = "sql" // RelStore SQL dialect
	LangDoc = "doc" // DocStore keyword language
	LangOQL = "oql" // full OQL (mediator servers)
)

// DefaultMaxInflight bounds how many requests one connection may have
// executing concurrently on the server; requests beyond it are shed with
// an explicit overload frame (CodeOverloaded) rather than silently
// queued — the caller learns immediately and can back off, retry
// elsewhere, or surface the overload.
const DefaultMaxInflight = 64

// CodeOverloaded marks a response frame that reports a shed: the server
// refused to execute the request because an in-flight cap was reached.
// It is an explicit overload signal, distinct from both transport
// failures (the server is up) and query errors (the query was never
// looked at).
const CodeOverloaded = "overloaded"

// CodeExpired marks a response frame for a request whose propagated
// deadline had already passed when the server would have executed it: the
// handler was never invoked (deadline-aware server-side admission).
const CodeExpired = "expired"

// OpCancel is the fire-and-forget cancellation op: its ID names an earlier
// request on the same connection whose handler context should be cancelled.
// A cancel frame never receives a response — by the time it lands the
// caller has already walked away.
const OpCancel = "cancel"

// Request is one client frame.
type Request struct {
	ID int64  `json:"id"`
	Op string `json:"op"` // "query", "capability", "collections", "ping", "cancel"
	// Lang and Text carry the query for Op == "query".
	Lang string `json:"lang,omitempty"`
	Text string `json:"text,omitempty"`
	// DeadlineMillis is the caller's remaining time budget in milliseconds
	// at send time (rounded up, so any positive remaining budget encodes as
	// at least 1). Zero means no deadline; negative means the budget was
	// already spent, and the server rejects the request without invoking
	// the handler. A relative budget survives clock skew between the two
	// ends, which an absolute deadline timestamp would not.
	DeadlineMillis int64 `json:"deadline_ms,omitempty"`
	// Load carries the migration bulk-load payload for Op == "load".
	Load *LoadRequest `json:"load,omitempty"`
}

// Response is one server frame. Payload fields are op-specific.
type Response struct {
	ID  int64  `json:"id"`
	Err string `json:"err,omitempty"`
	// Code carries a machine-readable error class; CodeOverloaded marks
	// requests the server shed at an in-flight cap.
	Code string `json:"code,omitempty"`
	// Value is the tagged encoding of the query result (op "query").
	Value json.RawMessage `json:"value,omitempty"`
	// Residual carries a partial answer-as-query when the server is a
	// mediator that could not reach all of its own sources (answers are
	// queries, so partial answers compose across mediator levels).
	Residual string `json:"residual,omitempty"`
	// Unavailable lists the server's unreachable sources for Residual.
	Unavailable []string `json:"unavailable,omitempty"`
	// Grammar is the capability grammar text (op "capability").
	Grammar string `json:"grammar,omitempty"`
	// Collections lists collection names (op "collections").
	Collections []string `json:"collections,omitempty"`
	// Versions maps collection names to their current data versions
	// (op "versions"); nil when the source does not track versions.
	Versions map[string]int64 `json:"versions,omitempty"`
}

// Handler is the server-side service implementation.
type Handler interface {
	// HandleQuery executes a query in the given language.
	HandleQuery(ctx context.Context, lang, text string) (json.RawMessage, error)
	// Capability returns the wrapper grammar text for this source.
	Capability() string
	// Collections lists the served collection names.
	Collections() []string
}

// VersionedHandler is implemented by handlers whose source tracks data
// versions per collection (the §4 staleness extension).
type VersionedHandler interface {
	Versions() map[string]int64
}

// PartialHandler is implemented by handlers (mediator servers) that can
// answer with a residual query when their own sources are unavailable. The
// server prefers it over HandleQuery when present.
type PartialHandler interface {
	// HandleQueryPartial returns either a complete value or a residual
	// answer-as-query plus the names of the unreachable sources.
	HandleQueryPartial(ctx context.Context, lang, text string) (value json.RawMessage, residual string, unavailable []string, err error)
}

// PartialUpstreamError reports that a queried mediator could only answer
// partially: from the caller's point of view the source is (partly)
// unavailable, and its own partial-evaluation machinery takes over.
type PartialUpstreamError struct {
	Addr        string
	Residual    string
	Unavailable []string
}

// Error implements the error interface.
func (e *PartialUpstreamError) Error() string {
	return fmt.Sprintf("wire: %s answered partially (unavailable: %v)", e.Addr, e.Unavailable)
}

// Stats counts server traffic; the benchmark harness reads it to measure
// data movement under different pushdown regimes.
type Stats struct {
	Queries  atomic.Int64
	BytesIn  atomic.Int64
	BytesOut atomic.Int64
	// Malformed counts frames that failed to parse as requests.
	Malformed atomic.Int64
	// Shed counts requests refused with an overload frame because a
	// per-connection or per-server in-flight cap was reached.
	Shed atomic.Int64
	// Cancelled counts in-flight handler contexts the server cancelled
	// before their request completed — by an explicit cancel frame, or by
	// the connection dying with requests still executing.
	Cancelled atomic.Int64
	// ExpiredOnArrival counts requests rejected without invoking the
	// handler because their propagated deadline had already passed (an
	// expired budget on the frame, or a budget that lapsed before the
	// handler could run).
	ExpiredOnArrival atomic.Int64
}

// Server serves the wire protocol for a Handler. Each request on a
// connection is dispatched on its own goroutine (bounded per connection),
// so pipelined requests — e.g. a scatter-gather whose shards share one
// mediator connection — execute concurrently and answer in completion
// order, not arrival order.
type Server struct {
	handler Handler

	lis  net.Listener
	wg   sync.WaitGroup
	done chan struct{}

	// baseCtx parents every handler context; baseCancel fires on Close so
	// in-flight handlers stop instead of outliving the server.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	unavailable atomic.Bool
	latencyNs   atomic.Int64

	// srvSem, when non-nil, caps concurrent requests across the whole
	// server, on top of the per-connection DefaultMaxInflight. Requests
	// beyond either cap are shed with an overload frame, not queued.
	srvSem chan struct{}

	inflight atomic.Int64
	stats    Stats
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithMaxServerInflight caps concurrent request execution across every
// connection of the server — the admission bound that keeps a popular
// source from running an unbounded number of query goroutines. Requests
// past the cap are shed with an overload frame. Zero (the default) means
// no server-wide cap.
func WithMaxServerInflight(n int) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.srvSem = make(chan struct{}, n)
		}
	}
}

// NewServer starts a server on addr ("127.0.0.1:0" picks a free port).
func NewServer(addr string, h Handler, opts ...ServerOption) (*Server, error) {
	lis, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("wire: listen %s: %w", addr, err)
	}
	s := &Server{handler: h, lis: lis, done: make(chan struct{})}
	//lint:allow ctxflow server lifetime root: there is no caller context to inherit; per-request contexts derive from it with the propagated budget
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for _, o := range opts {
		o(s)
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the server's listen address.
func (s *Server) Addr() string { return s.lis.Addr().String() }

// Stats exposes the traffic counters.
func (s *Server) Stats() *Stats { return &s.stats }

// Inflight reports how many requests are executing right now, across every
// connection. It is the gauge the cancellation tests watch: after a caller
// abandons its requests, the count must drain back down instead of
// accumulating abandoned work.
func (s *Server) Inflight() int64 { return s.inflight.Load() }

// SetAvailable controls fault injection: an unavailable server accepts
// connections and reads requests but never replies. The check applies per
// request at dispatch time.
func (s *Server) SetAvailable(up bool) { s.unavailable.Store(!up) }

// Available reports whether the server answers queries.
func (s *Server) Available() bool { return !s.unavailable.Load() }

// SetLatency injects a fixed delay before each reply, modeling link and
// processing latency. The delay applies per request: pipelined requests
// wait it out concurrently, as they would on a real wide-area link.
func (s *Server) SetLatency(d time.Duration) { s.latencyNs.Store(int64(d)) }

// Close stops the server and waits for connection goroutines to exit.
func (s *Server) Close() error {
	select {
	case <-s.done:
		return nil // already closed
	default:
	}
	close(s.done)
	// Cancel in-flight handler contexts so a handler mid-query observes the
	// shutdown at its next cancellation check instead of running on against
	// a closed server.
	s.baseCancel()
	err := s.lis.Close()
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// inflightRegistry tracks the cancel funcs of one connection's in-flight
// request contexts, keyed by request ID. A cancel frame (or the connection
// dying) cancels the matching entries; a handler completing removes its
// own entry, and the removal doubles as the "was I cancelled?" check that
// suppresses the response frame for a cancelled request.
type inflightRegistry struct {
	mu sync.Mutex
	m  map[int64]context.CancelFunc
}

func newInflightRegistry() *inflightRegistry {
	return &inflightRegistry{m: make(map[int64]context.CancelFunc)}
}

// add registers a request's cancel func. A duplicate ID (a misbehaving
// client reusing IDs) cancels the stale entry rather than leaking it.
func (r *inflightRegistry) add(id int64, cancel context.CancelFunc) {
	r.mu.Lock()
	prev := r.m[id]
	r.m[id] = cancel
	r.mu.Unlock()
	if prev != nil {
		prev()
	}
}

// cancel fires and removes the entry for id, reporting whether one was
// still in flight.
func (r *inflightRegistry) cancel(id int64) bool {
	r.mu.Lock()
	c, ok := r.m[id]
	delete(r.m, id)
	r.mu.Unlock()
	if ok {
		c()
	}
	return ok
}

// complete removes the entry for id without firing it, reporting whether
// it was still present — false means the request was cancelled and its
// response must not be written.
func (r *inflightRegistry) complete(id int64) bool {
	r.mu.Lock()
	_, ok := r.m[id]
	delete(r.m, id)
	r.mu.Unlock()
	return ok
}

// cancelAll fires every remaining entry — the connection died with
// requests in flight — and returns how many it cancelled.
func (r *inflightRegistry) cancelAll() int {
	r.mu.Lock()
	cancels := make([]context.CancelFunc, 0, len(r.m))
	for id, c := range r.m {
		cancels = append(cancels, c)
		delete(r.m, id)
	}
	r.mu.Unlock()
	for _, c := range cancels {
		c()
	}
	return len(cancels)
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer conn.Close()

	// Close the connection when the server shuts down so blocked clients
	// unblock on EOF rather than leaking.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-s.done:
			conn.Close()
		case <-stop:
		}
	}()

	var (
		writeMu sync.Mutex     // serializes response frames
		reqs    sync.WaitGroup // in-flight request goroutines
	)
	reg := newInflightRegistry()
	defer reqs.Wait() // flush in-flight responses before closing the conn
	// Runs before reqs.Wait (LIFO): a dead connection cancels its in-flight
	// handlers — nobody is left to read their answers — so the Wait above
	// drains promptly instead of letting abandoned work run to completion.
	defer func() { s.stats.Cancelled.Add(int64(reg.cancelAll())) }()
	sem := make(chan struct{}, DefaultMaxInflight)

	scanner := bufio.NewScanner(conn)
	scanner.Buffer(make([]byte, 0, 64*1024), maxFrameBytes)
	for scanner.Scan() {
		line := scanner.Bytes()
		s.stats.BytesIn.Add(int64(len(line)) + 1)
		var req Request
		if err := json.Unmarshal(line, &req); err != nil {
			// Malformed frame: answer once — echoing the request ID when
			// the frame is well-formed enough to carry one, so the caller
			// can match the error — then drop the connection, since the
			// stream's framing can no longer be trusted.
			s.stats.Malformed.Add(1)
			var probe struct {
				ID int64 `json:"id"`
			}
			_ = json.Unmarshal(line, &probe)
			s.writeResponse(conn, &writeMu, Response{ID: probe.ID, Err: "malformed request: " + err.Error()})
			return
		}
		if req.Op == OpCancel {
			// Fire-and-forget: cancel the matching in-flight handler, no
			// response. A miss (the request already completed, or never
			// existed) is the expected race, not an error.
			if reg.cancel(req.ID) {
				s.stats.Cancelled.Add(1)
			}
			continue
		}
		if req.DeadlineMillis < 0 {
			// Deadline-aware admission: the caller's budget was spent before
			// the frame was even written. Rejecting here costs nothing; the
			// handler is never invoked and no in-flight slot is consumed.
			s.stats.ExpiredOnArrival.Add(1)
			s.writeResponse(conn, &writeMu, Response{ID: req.ID, Err: "deadline expired before execution", Code: CodeExpired})
			continue
		}
		// Admission: both caps shed with an explicit overload frame rather
		// than stalling the read loop. The caller finds out now — while it
		// can still act on it — instead of discovering a silent queue when
		// its deadline fires.
		select {
		case sem <- struct{}{}:
		default:
			s.shedRequest(conn, &writeMu, req.ID, fmt.Sprintf("connection at its in-flight cap (%d)", DefaultMaxInflight))
			continue
		}
		if s.srvSem != nil {
			select {
			case s.srvSem <- struct{}{}:
			default:
				<-sem
				s.shedRequest(conn, &writeMu, req.ID, fmt.Sprintf("server at its in-flight cap (%d)", cap(s.srvSem)))
				continue
			}
		}
		// The handler context carries the propagated budget and registers in
		// the connection's in-flight registry so a later cancel frame (or the
		// connection dying) reaches it.
		var rctx context.Context
		var cancel context.CancelFunc
		if req.DeadlineMillis > 0 {
			rctx, cancel = context.WithTimeout(s.baseCtx, time.Duration(req.DeadlineMillis)*time.Millisecond)
		} else {
			rctx, cancel = context.WithCancel(s.baseCtx)
		}
		reg.add(req.ID, cancel)
		s.inflight.Add(1)
		reqs.Add(1)
		go func(req Request, rctx context.Context, cancel context.CancelFunc) {
			defer reqs.Done()
			defer s.inflight.Add(-1)
			defer cancel()
			defer func() {
				<-sem
				if s.srvSem != nil {
					<-s.srvSem
				}
			}()
			s.handleRequest(conn, &writeMu, req, rctx, reg)
		}(req, rctx, cancel)
	}
}

// shedRequest answers one request with the overload frame and counts it.
// The connection stays healthy: shedding is per request, and the requests
// pipelined behind the shed one proceed normally.
func (s *Server) shedRequest(conn net.Conn, writeMu *sync.Mutex, id int64, reason string) {
	s.stats.Shed.Add(1)
	s.writeResponse(conn, writeMu, Response{ID: id, Err: "server overloaded: " + reason, Code: CodeOverloaded})
}

// handleRequest runs one request to completion: fault-injection checks,
// dispatch, reply. It runs on its own goroutine so a slow request does not
// stall the requests behind it on the same connection. The request's
// registry entry doubles as the cancellation check: a request cancelled
// mid-flight has lost its entry, and its response is suppressed — the
// caller already walked away, and writing a frame nobody matches only
// burns bandwidth.
func (s *Server) handleRequest(conn net.Conn, writeMu *sync.Mutex, req Request, rctx context.Context, reg *inflightRegistry) {
	if s.unavailable.Load() {
		// The source "does not respond": swallow the request. The
		// client's deadline, not an error, ends the exchange.
		reg.complete(req.ID)
		return
	}
	if d := time.Duration(s.latencyNs.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-rctx.Done():
			// Cancelled or expired while "on the wire": fall through to the
			// pre-execution check below instead of sleeping out the link.
		case <-s.done:
			reg.complete(req.ID)
			return
		}
	}
	if rctx.Err() != nil {
		// The budget lapsed between arrival and execution (scheduling under
		// load, injected link latency): reject without invoking the handler.
		// When the entry is gone a cancel frame got here first — already
		// counted, nothing to write.
		if reg.complete(req.ID) {
			s.stats.ExpiredOnArrival.Add(1)
			s.writeResponse(conn, writeMu, Response{ID: req.ID, Err: "deadline expired before execution", Code: CodeExpired})
		}
		return
	}
	resp := s.dispatch(rctx, &req)
	if reg.complete(req.ID) {
		s.writeResponse(conn, writeMu, resp)
	}
}

// writeResponse marshals and writes one response frame under the
// connection's write lock.
func (s *Server) writeResponse(conn net.Conn, writeMu *sync.Mutex, resp Response) {
	buf, err := json.Marshal(resp)
	if err != nil {
		buf, _ = json.Marshal(Response{ID: resp.ID, Err: "marshal response: " + err.Error()})
	}
	buf = append(buf, '\n')
	writeMu.Lock()
	n, werr := conn.Write(buf)
	writeMu.Unlock()
	s.stats.BytesOut.Add(int64(n))
	if werr != nil {
		// The write side is broken; closing wedges the read loop too.
		conn.Close()
	}
}

func (s *Server) dispatch(ctx context.Context, req *Request) Response {
	resp := Response{ID: req.ID}
	switch req.Op {
	case "ping":
		// Empty success.
	case "query":
		s.stats.Queries.Add(1)
		if ph, ok := s.handler.(PartialHandler); ok {
			value, residual, unavailable, err := ph.HandleQueryPartial(ctx, req.Lang, req.Text)
			switch {
			case err != nil:
				resp.Err = err.Error()
			case residual != "":
				resp.Residual = residual
				resp.Unavailable = unavailable
			default:
				resp.Value = value
			}
			break
		}
		value, err := s.handler.HandleQuery(ctx, req.Lang, req.Text)
		if err != nil {
			resp.Err = err.Error()
		} else {
			resp.Value = value
		}
	case "load":
		lh, ok := s.handler.(LoadHandler)
		if !ok {
			resp.Err = "server does not accept loads"
			break
		}
		if req.Load == nil {
			resp.Err = "load frame without payload"
			break
		}
		if err := lh.HandleLoad(ctx, req.Load); err != nil {
			resp.Err = err.Error()
		}
	case "capability":
		resp.Grammar = s.handler.Capability()
	case "collections":
		resp.Collections = s.handler.Collections()
	case "versions":
		if vh, ok := s.handler.(VersionedHandler); ok {
			resp.Versions = vh.Versions()
		}
	default:
		resp.Err = fmt.Sprintf("unknown op %q", req.Op)
	}
	return resp
}
