package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// clients is the closed-loop load: callers of a mediator wait for their
// reply before they ask again. Two, because the reference box has two
// cores and the mediator, the sources and the generator share them.
const clients = 2

// counters is a snapshot of everything a window's deltas are taken from.
type counters struct {
	mallocs    uint64
	allocBytes uint64
	cpu        time.Duration // user + system, whole process
	requests   int64         // query frames the sources served
	cancelled  int64         // handler contexts the sources cancelled
	bytesOut   int64         // bytes the sources wrote
	shardReads int64         // logical shard reads the mediator counted
}

func (f *fleet) snapshot() (counters, error) {
	var c counters
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.allocBytes = ms.Mallocs, ms.TotalAlloc
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return c, fmt.Errorf("getrusage: %w", err)
	}
	c.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	for _, s := range f.servers {
		st := s.Stats()
		c.requests += st.Queries.Load()
		c.cancelled += st.Cancelled.Load()
		c.bytesOut += st.BytesOut.Load()
	}
	for _, n := range f.m.ShardTraffic() {
		c.shardReads += n
	}
	return c, nil
}

// window is what one measurement window observed. Both clients are idle at
// its start and at its end, so every delta belongs to the window's own
// queries and to nothing else.
type window struct {
	queries   int       // answered and verified
	failed    int       // errors, sheds and wrong answers
	firstErr  error     // the first of them, for the report
	latencies []float64 // ms, submit to verified answer, sorted
	qps       float64   // sum over clients of queries / busy time
	delta     counters
}

func (w *window) perQuery(v float64) float64 { return v / float64(w.queries) }

// runWindow drives the fleet with one stream per client for about d: a
// client starts no query after the deadline and the window ends when the
// last in-flight query has been verified. It returns once every client
// goroutine has exited.
func (f *fleet) runWindow(ctx context.Context, w *workload, streams []*stream, d time.Duration) (*window, error) {
	before, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	type clientResult struct {
		latencies []float64
		failed    int
		firstErr  error
		busy      time.Duration
	}
	results := make([]clientResult, len(streams))
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for c, s := range streams {
		wg.Add(1)
		go func(res *clientResult, s *stream) {
			defer wg.Done()
			seen := make([]uint64, f.o.seenWords())
			for ctx.Err() == nil {
				t0 := time.Now()
				if !t0.Before(deadline) {
					break
				}
				q := w.next(s)
				v, err := f.m.QueryContext(ctx, q.text)
				if err == nil {
					err = w.check(f.o, q, v, seen)
				}
				if err != nil {
					res.failed++
					if res.firstErr == nil {
						res.firstErr = err
					}
					continue
				}
				res.latencies = append(res.latencies, float64(time.Since(t0))/float64(time.Millisecond))
			}
			res.busy = time.Since(start)
		}(&results[c], s)
	}
	wg.Wait()
	after, err := f.snapshot()
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	out := &window{delta: counters{
		mallocs:    after.mallocs - before.mallocs,
		allocBytes: after.allocBytes - before.allocBytes,
		cpu:        after.cpu - before.cpu,
		requests:   after.requests - before.requests,
		cancelled:  after.cancelled - before.cancelled,
		bytesOut:   after.bytesOut - before.bytesOut,
		shardReads: after.shardReads - before.shardReads,
	}}
	for _, r := range results {
		out.queries += len(r.latencies)
		out.failed += r.failed
		if out.firstErr == nil {
			out.firstErr = r.firstErr
		}
		out.latencies = append(out.latencies, r.latencies...)
		// A client's rate is taken over its own busy time, so the moment
		// one client waits for the other's last query counts against
		// neither.
		out.qps += float64(len(r.latencies)) / r.busy.Seconds()
	}
	sort.Float64s(out.latencies)
	return out, nil
}
