// Package runner is the parallel experiment orchestration layer: a
// deterministic worker pool that fans independent simulation
// replications out across CPU cores.
//
// Every figure and table of the reproduction is an aggregate over
// replications that share nothing but read-only inputs (the mesh, the
// planner, the timing config) — each replication builds its own
// discrete-event simulator, so they are embarrassingly parallel. The
// pool exploits that: [Map] runs n index-addressed jobs on up to
// Procs goroutines and returns the results in index order, so the
// caller's aggregation sees exactly the sequence a serial loop would
// have produced. Combined with [sim.Substream] — which derives each
// replication's RNG purely from (seed, replication) — the output of
// every experiment is bit-identical for any worker count.
//
// The package deliberately has no dependency on the simulation
// layers; it orchestrates arbitrary jobs and is the seam future
// scaling work (sharded sweeps, multi-backend dispatch) plugs into.
//
// Typical use:
//
//	pool := runner.New(procs).NotifyEach(progress.Tick)
//	results, err := runner.Map(pool, reps, func(i int) (float64, error) {
//	    rng := sim.Substream(seed, uint64(i))
//	    return runOneReplication(rng)
//	})
package runner

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// Pool bounds the concurrency of experiment execution. The zero value
// is not useful; construct pools with New. A Pool is stateless across
// calls and safe for concurrent use by multiple goroutines.
type Pool struct {
	procs  int
	notify func()
}

// New returns a pool that runs at most procs jobs concurrently.
// procs <= 0 means runtime.GOMAXPROCS(0), i.e. one worker per
// available core — the right default for CPU-bound simulation.
func New(procs int) *Pool {
	if procs <= 0 {
		procs = runtime.GOMAXPROCS(0)
	}
	return &Pool{procs: procs}
}

// Serial returns a single-worker pool. Map over a serial pool is an
// ordinary loop; it exists so callers can switch between serial and
// parallel execution without two code paths.
func Serial() *Pool { return New(1) }

// Procs returns the pool's concurrency bound.
func (p *Pool) Procs() int { return p.procs }

// NotifyEach returns a copy of p that calls fn after every completed
// job, from whichever worker finished it. fn must be safe for
// concurrent use ([Progress.Tick] is); a nil fn disables notification.
// The receiver is not modified, so one base pool can serve several
// sweeps with different progress sinks.
func (p *Pool) NotifyEach(fn func()) *Pool {
	q := *p
	q.notify = fn
	return &q
}

// Map runs job(0) … job(n-1) on up to p.Procs() workers and returns
// the n results in index order. It is MapCtx without cancellation.
func Map[T any](p *Pool, n int, job func(i int) (T, error)) ([]T, error) {
	return MapCtx(context.Background(), p, n, job)
}

// MapCtx runs job(0) … job(n-1) on up to p.Procs() workers and
// returns the n results in index order. Which worker runs which index
// is scheduling-dependent, but the returned slice is not: job i's
// result always lands in slot i, so aggregating the slice front to
// back is bit-identical to running a serial loop.
//
// If any job returns an error, MapCtx stops handing out new indices,
// waits for in-flight jobs, and returns the error of the
// lowest-indexed failed job (deterministic when the failure does not
// race the shutdown). A panicking job propagates its panic to the
// caller.
//
// Cancelling ctx stops the dispatch of new indices; jobs already in
// flight run to completion (the pool cannot interrupt a simulation
// mid-event) and the workers are drained before MapCtx returns. When
// the run was cut short by cancellation and no job failed, the
// returned error is ctx.Err().
func MapCtx[T any](ctx context.Context, p *Pool, n int, job func(i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	results := make([]T, n)
	errs := make([]error, n)
	done := ctx.Done()

	workers := p.procs
	if workers > n {
		workers = n
	}
	if workers == 1 {
		// Fast path: no goroutines, no channels — identical
		// semantics, and keeps -procs 1 runs trivially debuggable.
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			r, err := job(i)
			results[i] = r
			errs[i] = err
			if p.notify != nil {
				p.notify()
			}
			if err != nil {
				return nil, firstError(errs)
			}
		}
		return results, nil
	}

	var (
		next      atomic.Int64 // next index to hand out
		failed    atomic.Bool  // stop handing out new indices
		cancelled atomic.Bool  // ctx fired before the run completed
		panicMu   sync.Mutex
		panics    []any
		wg        sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			defer func() {
				if v := recover(); v != nil {
					failed.Store(true)
					panicMu.Lock()
					// The re-panic below happens on the caller's
					// goroutine, so the faulting job's stack would
					// be lost — capture it here, where it is live.
					panics = append(panics, fmt.Sprintf("%v\n\njob goroutine stack:\n%s", v, debug.Stack()))
					panicMu.Unlock()
				}
			}()
			for {
				// Check cancellation before claiming an index, and
				// count it only while unclaimed work remains: a
				// cancel that lands once the index space is exhausted
				// must not discard a fully computed result set, so
				// every claimed index runs to the end.
				select {
				case <-done:
					if next.Load() < int64(n) {
						cancelled.Store(true)
					}
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n || failed.Load() {
					return
				}
				r, err := job(i)
				results[i] = r
				errs[i] = err
				if err != nil {
					failed.Store(true)
				}
				if p.notify != nil {
					p.notify()
				}
			}
		}()
	}
	wg.Wait()
	if len(panics) > 0 {
		panic(panics[0])
	}
	if failed.Load() {
		return nil, firstError(errs)
	}
	if cancelled.Load() {
		return nil, ctx.Err()
	}
	return results, nil
}

// ForEach runs job(0) … job(n-1) on the pool for side effects only.
// Error semantics match Map.
func ForEach(p *Pool, n int, job func(i int) error) error {
	return ForEachCtx(context.Background(), p, n, job)
}

// ForEachCtx runs job(0) … job(n-1) on the pool for side effects
// only, with the cancellation semantics of MapCtx.
func ForEachCtx(ctx context.Context, p *Pool, n int, job func(i int) error) error {
	_, err := MapCtx(ctx, p, n, func(i int) (struct{}, error) {
		return struct{}{}, job(i)
	})
	return err
}

func firstError(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Progress is a concurrency-safe completed-of-total counter that
// forwards every advance to a reporting callback — the bridge between
// the pool's per-job notifications and a CLI's live progress line.
type Progress struct {
	mu    sync.Mutex
	done  int
	total int
	fn    func(done, total int)
}

// NewProgress returns a counter expecting total completions that
// reports each one to fn. A nil fn is allowed and merely counts.
func NewProgress(total int, fn func(done, total int)) *Progress {
	return &Progress{total: total, fn: fn}
}

// Tick records one completion and reports the new count. It is safe
// to call from multiple workers; reports are serialised and done
// never exceeds an observer's view out of order.
func (p *Progress) Tick() {
	p.mu.Lock()
	p.done++
	d := p.done
	if p.fn != nil {
		p.fn(d, p.total)
	}
	p.mu.Unlock()
}

// Done returns the number of completions recorded so far.
func (p *Progress) Done() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.done
}
