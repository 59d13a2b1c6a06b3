package runner

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapReturnsResultsInIndexOrder(t *testing.T) {
	for _, procs := range []int{1, 2, 7, 64} {
		p := New(procs)
		got, err := Map(p, 100, func(i int) (int, error) { return i * i, nil })
		if err != nil {
			t.Fatalf("procs=%d: %v", procs, err)
		}
		if len(got) != 100 {
			t.Fatalf("procs=%d: %d results", procs, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("procs=%d: result[%d] = %d, want %d", procs, i, v, i*i)
			}
		}
	}
}

func TestMapIsDeterministicAcrossWorkerCounts(t *testing.T) {
	run := func(procs int) []float64 {
		out, err := Map(New(procs), 64, func(i int) (float64, error) {
			return float64(i) * 1.5, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	want := run(1)
	for _, procs := range []int{2, 4, 0} {
		got := run(procs)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("procs=%d differs from serial at %d", procs, i)
			}
		}
	}
}

func TestMapPropagatesError(t *testing.T) {
	sentinel := errors.New("boom")
	for _, procs := range []int{1, 4} {
		_, err := Map(New(procs), 50, func(i int) (int, error) {
			if i == 17 {
				return 0, fmt.Errorf("job %d: %w", i, sentinel)
			}
			return i, nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("procs=%d: err = %v, want wrapped sentinel", procs, err)
		}
	}
}

// TestMapStopsIssuingAfterError fails job 0 and holds every other job
// until the pool reports job 0 finished. The pool marks the run failed
// before it calls the completion hook, so the gate opens only once no
// new index may be issued: however the workers are scheduled, each
// runs at most the one job it had already claimed.
func TestMapStopsIssuingAfterError(t *testing.T) {
	var ran atomic.Int64
	gate := make(chan struct{})
	var open sync.Once
	p := New(2).NotifyEach(func() { open.Do(func() { close(gate) }) })
	_, err := Map(p, 10_000, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, errors.New("early failure")
		}
		<-gate
		return i, nil
	})
	if err == nil {
		t.Fatal("expected error")
	}
	// In-flight jobs may finish, but the pool must not chew through
	// anywhere near the full index space after the failure.
	if n := ran.Load(); n > 1000 {
		t.Fatalf("ran %d jobs after early failure", n)
	}
}

func TestMapPropagatesPanic(t *testing.T) {
	for _, procs := range []int{1, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("procs=%d: panic did not propagate", procs)
				}
			}()
			Map(New(procs), 8, func(i int) (int, error) {
				if i == 3 {
					panic("job panic")
				}
				return i, nil
			})
		}()
	}
}

func TestMapZeroAndNegativeN(t *testing.T) {
	for _, n := range []int{0, -5} {
		got, err := Map(New(4), n, func(i int) (int, error) { return i, nil })
		if err != nil || got != nil {
			t.Fatalf("n=%d: got %v, %v", n, got, err)
		}
	}
}

func TestForEach(t *testing.T) {
	sums := make([]int64, 257)
	err := ForEach(New(8), len(sums), func(i int) error {
		sums[i] = int64(i) // per-index slot writes must be race-free
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sums {
		if v != int64(i) {
			t.Fatalf("slot %d = %d", i, v)
		}
	}
}

func TestMapCtxPreCancelledRunsNothing(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, procs := range []int{1, 4} {
		var ran atomic.Int64
		_, err := MapCtx(ctx, New(procs), 100, func(i int) (int, error) {
			ran.Add(1)
			return i, nil
		})
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		if n := ran.Load(); n != 0 {
			t.Fatalf("procs=%d: %d jobs ran under a pre-cancelled context", procs, n)
		}
	}
}

func TestMapCtxCancellationStopsDispatch(t *testing.T) {
	for _, procs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		_, err := MapCtx(ctx, New(procs), 10_000, func(i int) (int, error) {
			if ran.Add(1) == 5 {
				cancel()
			}
			return i, nil
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("procs=%d: err = %v, want context.Canceled", procs, err)
		}
		// In-flight jobs finish, but the pool must stop dispatching:
		// nowhere near the full index space runs after the cancel.
		if n := ran.Load(); n > 1000 {
			t.Fatalf("procs=%d: ran %d jobs after cancellation", procs, n)
		}
	}
}

func TestMapCtxKeepsCompletedResultsOnLateCancel(t *testing.T) {
	// A cancel that lands once every index has been handed out must
	// not discard the fully computed result set (regression: workers
	// used to check ctx before noticing the index space was done).
	for _, procs := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		got, err := MapCtx(ctx, New(procs), 20, func(i int) (int, error) {
			if i == 19 {
				cancel()
			}
			return i, nil
		})
		cancel()
		if err != nil {
			t.Fatalf("procs=%d: err = %v, want nil for a completed run", procs, err)
		}
		if len(got) != 20 || got[19] != 19 {
			t.Fatalf("procs=%d: results discarded: %v", procs, got)
		}
	}
}

func TestMapCtxJobErrorWinsOverLaterCancel(t *testing.T) {
	sentinel := errors.New("boom")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := MapCtx(ctx, New(4), 50, func(i int) (int, error) {
		if i == 3 {
			return 0, sentinel
		}
		return i, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("err = %v, want the job error", err)
	}
}

func TestForEachCtx(t *testing.T) {
	var n atomic.Int64
	if err := ForEachCtx(context.Background(), New(4), 64, func(i int) error {
		n.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 64 {
		t.Fatalf("ran %d jobs, want 64", n.Load())
	}
}

func TestNewDefaultsAndSerial(t *testing.T) {
	if New(0).Procs() < 1 {
		t.Error("New(0) pool has no workers")
	}
	if got := Serial().Procs(); got != 1 {
		t.Errorf("Serial().Procs() = %d", got)
	}
	if got := New(-3).Procs(); got < 1 {
		t.Errorf("New(-3).Procs() = %d", got)
	}
}

// TestNotifyEachAndProgress exercises the pool→progress bridge under
// concurrency; run with -race to verify the counter is data-race
// free (the CI workflow does).
func TestNotifyEachAndProgress(t *testing.T) {
	const n = 500
	var maxSeen atomic.Int64
	prog := NewProgress(n, func(done, total int) {
		if total != n {
			t.Errorf("total = %d, want %d", total, n)
		}
		if int64(done) > maxSeen.Load() {
			maxSeen.Store(int64(done))
		}
	})
	p := New(8).NotifyEach(prog.Tick)
	if _, err := Map(p, n, func(i int) (int, error) { return i, nil }); err != nil {
		t.Fatal(err)
	}
	if prog.Done() != n {
		t.Errorf("Done() = %d, want %d", prog.Done(), n)
	}
	if maxSeen.Load() != n {
		t.Errorf("max reported done = %d, want %d", maxSeen.Load(), n)
	}
}

func TestNotifyEachDoesNotMutateReceiver(t *testing.T) {
	base := New(2)
	derived := base.NotifyEach(func() {})
	if base.notify != nil {
		t.Error("NotifyEach mutated the base pool")
	}
	if derived.notify == nil {
		t.Error("derived pool lost its notify hook")
	}
}
