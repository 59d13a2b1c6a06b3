package sim

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// WavefrontStats is the batch-size census Run and RunUntil keep: how
// many same-instant wavefronts they drained, how many calendar records
// they carried, and a log2 histogram of batch sizes in records
// (Hist[k] counts wavefronts of size in [2^k, 2^(k+1))). It counts
// calendar records, not model events: a record that folds several
// same-instant actions (see AddFired) is one entry here, so Events can
// be smaller than Fired.
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
	queue   *calendar
	nextSeq uint64
	fired   uint64
	stopped bool
	// wfBuf is the caller-owned scratch popWavefront copies runs
	// into, reused across batches; wfStats is the batch-size census.
	wfBuf   []event
	wfStats WavefrontStats
}

// New returns an empty simulator with the clock at zero.
func New() *Simulator {
	return &Simulator{queue: newCalendar()}
}

// Reset returns s to the state New leaves it in, discarding pending
// events and lane claims but keeping the calendar's storage: event
// order depends only on (due, seq), never on that storage.
func (s *Simulator) Reset() {
	s.queue.reset()
	*s = Simulator{queue: s.queue, wfBuf: s.wfBuf}
}

// WavefrontStats returns the batch-size census accumulated so far.
// Step executes records outside any batch, so it adds nothing here.
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
// rest here, so Fired keeps counting model events.
func (s *Simulator) AddFired(n int) { s.fired += uint64(n) }

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
	lane := noLane
	if t == s.now {
		lane = 0
	}
	s.schedule(t, s.nextSeq, lane, fn, arg)
	s.nextSeq++
}

// ReserveSeqs reserves n consecutive sequence numbers and returns the
// first. A record pushed later under one of them with AtCallSeq fires
// exactly where a record pushed now would: (due, seq) order is all
// the calendar knows. So a model that would push a run of future
// records at once can keep only one of them pending, each pushing the
// next.
func (s *Simulator) ReserveSeqs(n int) uint64 {
	first := s.nextSeq
	s.nextSeq += uint64(n)
	return first
}

// AtCallSeq schedules the action record (fn, arg) to run at absolute
// time t under seq, a sequence number ReserveSeqs handed out and no
// record has used yet. A record due at the running instant must carry
// a seq reserved while the running record executes, so it still sorts
// after the rest of the running batch; a chain of records each
// pushing the next at a later instant can use any reservation.
func (s *Simulator) AtCallSeq(t Time, seq uint64, fn Func, arg any) {
	if seq >= s.nextSeq {
		panic(fmt.Sprintf("sim: AtCallSeq with unreserved seq %d", seq))
	}
	lane := tailLane
	if t == s.now {
		lane = 0
	}
	s.schedule(t, seq, lane, fn, arg)
}

// schedule checks and pushes the record (t, seq, fn, arg) onto
// calendar lane lane (noLane: the ladder).
func (s *Simulator) schedule(t Time, seq uint64, lane int, fn Func, arg any) {
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
	s.queue.push(lane, t, seq, fn, arg)
}

// AfterCall schedules the action record (fn, arg) to run delay time
// units from now. A model's few fixed delays each get a calendar lane
// of their own, so this is the cheapest way to schedule a record.
func (s *Simulator) AfterCall(delay Time, fn Func, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	s.schedule(s.now+delay, s.nextSeq, s.queue.laneFor(delay), fn, arg)
	s.nextSeq++
}

// Pending reports the number of records waiting on the calendar. A
// record can stand for more than one model event: it may fold several
// same-instant actions (see AddFired), and a chain pushed under
// reserved seqs (see AtCallSeq) keeps only its next record pending.
func (s *Simulator) Pending() int { return s.queue.n }

// Stop ends the simulation: the running Run/RunUntil loop exits after
// the current event returns, and any further scheduling panics with a
// descriptive message — an event firing after an experiment tore its
// state down is always a logic error, and the panic names it instead
// of corrupting the next run. Stop is idempotent.
func (s *Simulator) Stop() { s.stopped = true }

// Stopped reports whether Stop has been called.
func (s *Simulator) Stopped() bool { return s.stopped }

// Step executes the earliest pending event, advancing the clock to its
// due time. It reports whether an event was executed. Run and RunUntil
// execute records in exactly this order; Step is the one-record-at-a-
// time entry point for debugging and for tests that pin that claim.
func (s *Simulator) Step() bool {
	if s.stopped || s.queue.n == 0 {
		return false
	}
	e := s.queue.pop()
	s.now = e.due
	s.fired++
	e.fn(s, e.arg)
	return true
}

// Run executes events until the calendar is empty or Stop is called.
func (s *Simulator) Run() { s.drain(math.Inf(1)) }

// RunUntil executes events with due time <= horizon. The clock ends at
// horizon if the calendar still holds later events, or at the last
// executed event otherwise, in which case ErrStalled is returned.
func (s *Simulator) RunUntil(horizon Time) error {
	s.drain(horizon)
	if s.queue.n == 0 {
		return ErrStalled
	}
	if !s.stopped {
		s.now = horizon
	}
	return nil
}

// drain is the batched loop behind Run and RunUntil. Each iteration
// pops the front equal-due run in one calendar sweep and executes it
// front to back: the run comes back in (due, seq) order, events an
// executing body schedules at the running instant carry seqs larger
// than everything in the run (see AtCallSeq), and a Stop mid-batch hands the unexecuted remainder back to the
// calendar — so the observable schedule is bit-for-bit what repeated
// Step calls produce, only the calendar round trips are amortized.
func (s *Simulator) drain(horizon Time) {
	bounded := !math.IsInf(horizon, 1)
	// The scratch keeps executed records' fn/arg references between
	// batches (the next pop overwrites them); release them all when the
	// drain hands control back.
	defer func() { clear(s.wfBuf[:cap(s.wfBuf)]) }()
	for !s.stopped && s.queue.n > 0 {
		if bounded {
			if _, due := s.queue.first(); due > horizon {
				return
			}
		}
		wf := s.queue.popWavefront(s.wfBuf[:0])
		n := len(wf)
		s.now = wf[0].due
		s.wfStats.Batches++
		s.wfStats.Events += uint64(n)
		s.wfStats.Hist[histBucket(n)]++
		for k := 0; k < n; k++ {
			if s.stopped {
				// Stop landed mid-batch: hand the unexecuted tail back
				// so Pending matches the Step loop. A stopped simulator
				// never pops again, so only the count matters.
				for _, e := range wf[k:] {
					s.queue.push(noLane, e.due, e.seq, e.fn, e.arg)
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
