package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// Calendar selects the event-calendar implementation backing a
// Simulator. The default is Ladder, the amortized-O(1) ladder queue;
// Heap is the legacy O(log n) binary heap, kept as a debugging
// reference. Both drain any schedule in the identical (due, seq)
// order, so simulation output is byte-for-byte the same either way —
// only throughput differs.
type Calendar int

const (
	// Ladder is the multi-tier calendar queue (ladder.go): amortized
	// O(1) push and pop, with an O(1) fast path for the same-instant
	// event bursts wormhole hop timing produces. The default.
	Ladder Calendar = iota
	// Heap is the legacy binary-heap calendar (event.go): O(log n)
	// sift per operation. Select it to cross-check a result or to
	// measure the ladder's speedup.
	Heap
)

// String returns the name used by CLI -calendar flags.
func (c Calendar) String() string {
	switch c {
	case Ladder:
		return "ladder"
	case Heap:
		return "heap"
	}
	return fmt.Sprintf("Calendar(%d)", int(c))
}

// ParseCalendar converts a CLI flag value ("ladder" or "heap") into a
// Calendar.
func ParseCalendar(name string) (Calendar, error) {
	switch name {
	case "ladder":
		return Ladder, nil
	case "heap":
		return Heap, nil
	}
	return 0, fmt.Errorf("sim: unknown calendar %q (want ladder or heap)", name)
}

// defaultCalendar is the process-wide kind New uses. It exists so a
// CLI flag can flip every simulator an experiment creates internally;
// atomic because worker pools read it concurrently.
var defaultCalendar atomic.Int32 // zero value == Ladder

// SetDefaultCalendar selects the calendar New returns from now on.
// Call it before starting a run, not during one.
func SetDefaultCalendar(c Calendar) { defaultCalendar.Store(int32(c)) }

// DefaultCalendar reports the calendar New currently uses.
func DefaultCalendar() Calendar { return Calendar(defaultCalendar.Load()) }

// wavefrontOff is the process-wide wavefront-execution knob, inverted
// so the zero value means on — wavefront batching is the default, the
// flag exists for A/B runs and differential tests. Atomic for the
// same reason as defaultCalendar: worker pools read it concurrently.
var wavefrontOff atomic.Bool

// SetDefaultWavefront selects whether simulators created from now on
// execute same-instant runs as batched wavefronts (the default) or
// pop one event at a time. Output is byte-identical either way — the
// knob trades nothing but speed, and exists so CI can diff the two.
func SetDefaultWavefront(on bool) { wavefrontOff.Store(!on) }

// DefaultWavefront reports whether New currently enables wavefront
// batch execution.
func DefaultWavefront() bool { return !wavefrontOff.Load() }

// WavefrontStats is the batch-size census a simulator keeps while
// running with wavefront execution: how many wavefronts it drained,
// how many calendar records they carried, and a log2 histogram of
// batch sizes in records (Hist[k] counts wavefronts of size in
// [2^k, 2^(k+1))). It counts calendar records, not model events: a
// record that folds several same-instant actions (see AddFired)
// is one entry here, so Events can be smaller than Fired.
type WavefrontStats struct {
	Batches uint64
	Events  uint64
	Hist    [16]uint64
}

// ErrStalled is returned by RunUntil when the calendar empties before
// the requested horizon. It usually means the workload stopped
// injecting messages, which is normal at the end of a run.
var ErrStalled = errors.New("sim: event calendar empty before horizon")

// Simulator owns the virtual clock and the event calendar.
// The zero value is not usable; call New.
type Simulator struct {
	now     Time
	queue   calendar
	lq      *ladderQueue // non-nil iff kind == Ladder: devirtualized hot path
	kind    Calendar
	nextSeq uint64
	fired   uint64
	limit   uint64 // safety valve; 0 means no limit
	stopped bool
	// wf enables wavefront batch execution (captured from the process
	// default at New); wfBuf is the caller-owned scratch popWavefront
	// copies runs into, reused across batches, and wfStats is the
	// batch-size census.
	wf      bool
	wfBuf   []event
	wfStats WavefrontStats
}

// New returns an empty simulator with the clock at zero, backed by the
// process default calendar (see SetDefaultCalendar; Ladder unless
// overridden).
func New() *Simulator {
	return NewWithCalendar(DefaultCalendar())
}

// NewWithCalendar returns an empty simulator backed by the given
// calendar implementation.
func NewWithCalendar(c Calendar) *Simulator {
	s := &Simulator{kind: c, wf: DefaultWavefront()}
	switch c {
	case Ladder:
		s.lq = newLadderQueue()
		s.queue = s.lq
	case Heap:
		s.queue = &eventQueue{}
	default:
		panic(fmt.Sprintf("sim: unknown calendar %d", int(c)))
	}
	return s
}

// Calendar reports which calendar implementation backs the simulator.
func (s *Simulator) Calendar() Calendar { return s.kind }

// Wavefront reports whether this simulator executes same-instant runs
// as batched wavefronts (captured from the process default at New).
func (s *Simulator) Wavefront() bool { return s.wf }

// WavefrontStats returns the batch-size census accumulated so far.
// All counters stay zero when wavefront execution is off.
func (s *Simulator) WavefrontStats() WavefrontStats { return s.wfStats }

// Now returns the current simulated time.
func (s *Simulator) Now() Time { return s.now }

// Fired reports how many model events have executed so far. A model
// event is one action the model performs; it is usually one calendar
// record, but a record that folds several same-instant actions
// reports the extras through AddFired, so Fired is the same whether
// or not a model folds its records.
func (s *Simulator) Fired() uint64 { return s.fired }

// AddFired reports n model events the running record executed in
// addition to itself. A record that folds several actions due at one
// instant counts as one fired event when it is popped; it reports the
// rest here, so Fired and the event limit keep counting model events.
func (s *Simulator) AddFired(n int) { s.fired += uint64(n) }

// SetEventLimit installs a safety limit on the number of model events
// (as counted by Fired) a Run call may execute; 0 disables the limit.
// The limit is checked between calendar records, so a folded record
// may carry the count past it before the panic. It guards against
// runaway feedback loops in experimental workloads.
func (s *Simulator) SetEventLimit(n uint64) { s.limit = n }

// runClosure adapts the closure-based At/After API onto the record
// calendar. An Action is a single pointer, so boxing it into the
// record's arg is allocation-free; only the closure the caller built
// costs an allocation.
func runClosure(_ *Simulator, arg any) { arg.(Action)() }

// At schedules action to run at absolute time t. Scheduling in the
// past panics: it is always a logic error in a discrete-event model.
func (s *Simulator) At(t Time, action Action) {
	if action == nil {
		panic("sim: nil action scheduled")
	}
	s.AtCall(t, runClosure, action)
}

// After schedules action to run delay time units from now.
func (s *Simulator) After(delay Time, action Action) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.At(s.now+delay, action)
}

// AtCall schedules the action record (fn, arg) to run at absolute
// time t. This is the allocation-free scheduling path hot loops use:
// fn is a prebuilt function (not a closure) and arg carries its
// state, typically a pointer into the caller's pooled objects.
func (s *Simulator) AtCall(t Time, fn Func, arg any) {
	if fn == nil {
		panic("sim: nil event function scheduled")
	}
	if s.stopped {
		panic("sim: schedule after Stop")
	}
	if t < s.now {
		// Like the schedule-after-Stop guard: a past-due event would
		// execute after events scheduled for later times, silently
		// corrupting causality, so it is named loudly instead.
		panic(fmt.Sprintf("sim: scheduling into the past: t=%v is before now=%v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling at NaN")
	}
	e := event{due: t, seq: s.nextSeq, fn: fn, arg: arg}
	if s.lq != nil {
		s.lq.push(e)
	} else {
		s.queue.push(e)
	}
	s.nextSeq++
}

// AfterCall schedules the action record (fn, arg) to run delay time
// units from now.
func (s *Simulator) AfterCall(delay Time, fn Func, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.AtCall(s.now+delay, fn, arg)
}

// Pending reports the number of events waiting on the calendar.
func (s *Simulator) Pending() int { return s.queue.Len() }

// Stop ends the simulation: the running Run/RunUntil loop exits after
// the current event returns, and any further scheduling panics with a
// descriptive message — an event firing after an experiment tore its
// state down is always a logic error, and the panic names it instead
// of corrupting the next run. Stop is idempotent.
func (s *Simulator) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Simulator) Stopped() bool { return s.stopped }

// Step executes the earliest pending event, advancing the clock to its
// due time. It reports whether an event was executed.
func (s *Simulator) Step() bool {
	if s.stopped {
		return false
	}
	var e event
	if s.lq != nil {
		if s.lq.n == 0 {
			return false
		}
		e = s.lq.pop()
	} else {
		if s.queue.Len() == 0 {
			return false
		}
		e = s.queue.pop()
	}
	s.now = e.due
	s.fired++
	e.fn(s, e.arg)
	return true
}

// Run executes events until the calendar is empty or Stop is called.
func (s *Simulator) Run() {
	if s.wf && s.limit == 0 {
		s.runWavefronts(math.Inf(1))
		return
	}
	for s.Step() {
		if s.limit > 0 && s.fired >= s.limit {
			panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", s.limit, s.now))
		}
	}
}

// RunUntil executes events with due time <= horizon. The clock ends at
// horizon if the calendar still holds later events, or at the last
// executed event otherwise, in which case ErrStalled is returned.
func (s *Simulator) RunUntil(horizon Time) error {
	if s.wf && s.limit == 0 {
		s.runWavefronts(horizon)
	} else {
		for !s.stopped && s.queue.Len() > 0 && s.queue.peek().due <= horizon {
			s.Step()
			if s.limit > 0 && s.fired >= s.limit {
				panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", s.limit, s.now))
			}
		}
	}
	if s.queue.Len() == 0 {
		return ErrStalled
	}
	if !s.stopped {
		s.now = horizon
	}
	return nil
}

// runWavefronts is the batched serial drain Run and RunUntil use when
// wavefront execution is on (and no event limit is set — the limit
// path keeps the one-at-a-time loop so the limit panic fires at the
// exact same event). Each iteration pops the front equal-due run in
// one calendar sweep and executes it front to back: the run comes
// back in (due, seq) order, events an executing body schedules carry
// seqs larger than everything in the run, and a Stop mid-batch
// re-pushes the unexecuted remainder with their original seqs — so
// the observable schedule is bit-for-bit what repeated Step calls
// produce, only the calendar round trips are amortized.
func (s *Simulator) runWavefronts(horizon Time) {
	bounded := !math.IsInf(horizon, 1)
	// The scratch keeps executed records' fn/arg references between
	// batches (the next pop overwrites them); release them all when the
	// drain hands control back.
	defer func() { clear(s.wfBuf[:cap(s.wfBuf)]) }()
	for !s.stopped && s.queue.Len() > 0 {
		if bounded && s.queue.peek().due > horizon {
			return
		}
		var wf []event
		if s.lq != nil {
			wf = s.lq.popWavefront(s.wfBuf[:0], math.Inf(1), math.MaxUint64)
		} else {
			wf = s.queue.popWavefront(s.wfBuf[:0], math.Inf(1), math.MaxUint64)
		}
		n := len(wf)
		s.now = wf[0].due
		s.wfStats.Batches++
		s.wfStats.Events += uint64(n)
		s.wfStats.Hist[histBucket(n)]++
		for k := 0; k < n; k++ {
			if s.stopped {
				// Stop landed mid-batch: hand the unexecuted tail
				// back to the calendar (push preserves explicit
				// seqs) so Pending matches the serial loop exactly.
				for _, e := range wf[k:] {
					s.queue.push(e)
				}
				break
			}
			s.fired++
			wf[k].fn(s, wf[k].arg)
		}
		s.wfBuf = wf
	}
}

// histBucket maps a batch size to its log2 histogram bucket.
func histBucket(n int) int {
	b := bits.Len(uint(n)) - 1
	if b >= len(WavefrontStats{}.Hist) {
		b = len(WavefrontStats{}.Hist) - 1
	}
	return b
}
