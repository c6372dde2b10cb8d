package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"syscall"
	"time"

	"disco/internal/physical"
	"disco/internal/wire"
)

func isUnavailableErr(err error) bool {
	var ue *physical.UnavailableError
	return errors.As(err, &ue)
}

// evalDeadlineKey marks contexts whose deadline is the mediator's own
// evaluation timer — the §4 "designated time" — as opposed to a deadline
// the caller brought.
type evalDeadlineKey struct{}

// withEvalDeadline bounds ctx by the mediator's evaluation deadline and
// tags it as such, so the error classifier can tell the §4 designated
// time (source unavailability) from a caller-imposed bound (a failed
// query from the caller's own impatience or cancellation).
func withEvalDeadline(ctx context.Context, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(context.WithValue(ctx, evalDeadlineKey{}, true), d)
}

func hasEvalDeadline(ctx context.Context) bool {
	v, _ := ctx.Value(evalDeadlineKey{}).(bool)
	return v
}

// TransientError classifies a source failure as transient: the source was
// reached (or is expected right back) and the exchange broke in a way a
// prompt retry has a real chance of fixing — a connection dropped
// mid-answer, a refused dial while the attempt still has deadline to
// spare, an overloaded server shedding load. It never escapes the submit
// path: submitOnce either retries it away under the retry budget or
// degrades it to an UnavailableError so failover and partial evaluation
// take over.
type TransientError struct {
	Repo string
	Err  error
}

// Error implements the error interface.
func (e *TransientError) Error() string {
	return fmt.Sprintf("transient failure at %s: %v", e.Repo, e.Err)
}

// Unwrap supports errors.Is/As.
func (e *TransientError) Unwrap() error { return e.Err }

// refusedRetryFloor is the deadline headroom below which a refused dial is
// not worth retrying: the backoff plus redial would eat what little
// deadline remains, so classify it as plain unavailability instead.
const refusedRetryFloor = 25 * time.Millisecond

// classifySourceError separates three kinds of failure — plus the calls
// the caller itself ended. Unavailability (no answer: timeouts, dead
// dials) is what partial evaluation and replica failover react to.
// Transient failures (mid-answer connection drops, refused dials with
// deadline to spare, server-side load sheds) are retried once under the
// retry budget before degrading to unavailability. Genuine query failures
// reported by a live source stay errors — degrading them would hide real
// failures in partial answers. And a user cancelling a query (or a
// caller-imposed deadline firing) is none of these: it must not become a
// partial answer and it must not count against the source's circuit
// breaker.
func classifySourceError(ctx context.Context, repo string, err error) error {
	var already *physical.UnavailableError
	if errors.As(err, &already) {
		return err
	}
	var upstream *wire.PartialUpstreamError
	if errors.As(err, &upstream) {
		// A mediator source answered partially: from here that is an
		// unavailability, and this mediator's partial evaluation produces
		// its own resubmittable answer.
		return &physical.UnavailableError{Repo: repo, Err: err}
	}
	var overloaded *wire.OverloadedError
	if errors.As(err, &overloaded) {
		// The server shed the request to protect itself: it is alive, and
		// a moment later it may well admit a retry.
		return &TransientError{Repo: repo, Err: err}
	}
	var remote *wire.RemoteError
	if errors.As(err, &remote) {
		return err // the source answered: a real error
	}
	if errors.Is(err, context.Canceled) && ctx.Err() != nil {
		// The call died because the caller's context ended (the user
		// cancelled, or the query already concluded): caller-side, not a
		// verdict on the source.
		return fmt.Errorf("mediator: source call to %s cancelled: %w", repo, err)
	}
	if errors.Is(err, context.DeadlineExceeded) &&
		errors.Is(ctx.Err(), context.DeadlineExceeded) && !hasEvalDeadline(ctx) {
		// The deadline that fired came with the caller's context, not from
		// the mediator's evaluation timer: caller-side as well.
		return fmt.Errorf("mediator: source call to %s ended by caller deadline: %w", repo, err)
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled):
		return &physical.UnavailableError{Repo: repo, Err: err}
	case isTimeoutNetErr(err):
		return &physical.UnavailableError{Repo: repo, Err: err}
	case isRefusedErr(err):
		// A refused dial means nothing is listening *right now* — which a
		// restarting server fixes in milliseconds. With deadline to spare
		// the retry budget gets a shot at it; otherwise it is ordinary
		// unavailability.
		if deadlineHeadroom(ctx) >= refusedRetryFloor {
			return &TransientError{Repo: repo, Err: err}
		}
		return &physical.UnavailableError{Repo: repo, Err: err}
	case isMidAnswerDropErr(err):
		// The connection was established and then broke under the
		// exchange: the source (or the path to it) flaked, not the query.
		return &TransientError{Repo: repo, Err: err}
	case isUnavailableNetErr(err):
		return &physical.UnavailableError{Repo: repo, Err: err}
	default:
		return err
	}
}

// deadlineHeadroom is the time left before ctx's deadline (effectively
// infinite when it has none).
func deadlineHeadroom(ctx context.Context) time.Duration {
	d, ok := ctx.Deadline()
	if !ok {
		return time.Duration(1<<63 - 1)
	}
	return time.Until(d)
}

// isTimeoutNetErr recognizes network-level timeouts (no answer within the
// attempt deadline) — always unavailability, never transient: the retry
// would wait out the same silence.
func isTimeoutNetErr(err error) bool {
	var netErr net.Error
	return errors.As(err, &netErr) && netErr.Timeout()
}

// isRefusedErr recognizes refused dials (ECONNREFUSED in any wrapping).
func isRefusedErr(err error) bool {
	return errors.Is(err, syscall.ECONNREFUSED)
}

// isMidAnswerDropErr recognizes connections that were established and then
// broke during the exchange: resets, broken pipes, unexpected EOFs, and
// read/write failures on a live connection. These are the classic
// transient faults — a flaky link, a crashing-and-restarting peer, a
// proxy cutting a long response — where one prompt retry usually
// succeeds. (Timeouts are excluded by classification order.)
func isMidAnswerDropErr(err error) bool {
	if errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE) {
		return true
	}
	//lint:allow eofidentity classification site: asks whether a transport error is EOF-shaped (wrapped EOFs included), not whether a stream ended
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return true
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) && (opErr.Op == "read" || opErr.Op == "write") {
		return true
	}
	return false
}

// isUnavailableNetErr recognizes network errors that mean "no answer" —
// timeouts, refused connections and dial-phase failures. Errors from a
// source that was reached and answered (e.g. a reset mid-answer) are NOT
// unavailability: partial evaluation must not silently degrade genuine
// source-side failures into partial answers.
func isUnavailableNetErr(err error) bool {
	var netErr net.Error
	if errors.As(err, &netErr) && netErr.Timeout() {
		return true
	}
	if errors.Is(err, syscall.ECONNREFUSED) {
		return true
	}
	var opErr *net.OpError
	if errors.As(err, &opErr) && opErr.Op == "dial" {
		// The connection was never established: the source is unreachable.
		return true
	}
	return false
}
