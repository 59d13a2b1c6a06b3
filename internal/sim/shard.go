package sim

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
)

// Conservative-parallel (PDES) sharded kernel.
//
// A sharded simulator partitions its pending events across K
// shard-local ladder calendars plus the serial calendar the Simulator
// always had. Events are classified at scheduling time:
//
//   - serial-class events (shard < 0) — workload closures, injection
//     ports, completions, deliveries, statistics callbacks, fault
//     machinery — execute on the coordinator thread in exact global
//     (due, seq) order, exactly as the serial kernel would run them;
//   - shard-class events (shard in [0, K)) — the network's header
//     advances and channel releases, which touch only state owned by
//     one shard — live in that shard's calendar and may execute on a
//     worker thread during a parallel segment.
//
// The coordinator repeatedly takes the globally least pending key.
// When it belongs to the serial calendar the event runs inline; when
// it belongs to a shard, the coordinator opens a parallel segment: a
// (due, seq) bound no later than the earliest serial key and no more
// than one lookahead window W past the least shard due. Every shard
// drains its events below the bound concurrently, in local key
// order. This is safe because (a) shard-class events touch only
// shard-owned state, and (b) any cross-shard event a worker schedules
// is at least W in the future (W is the network's per-hop channel
// delay, the hard lookahead), so it lands at or beyond the bound and
// cannot be missed by a shard that already drained the segment —
// workers enforce the invariant with a panic.
//
// Determinism. The serial kernel breaks due ties by seq, which is
// assigned in scheduling order; scheduling order during an interval
// is execution order of the parents times per-parent child order. No
// event scheduled during a segment can also execute during it (its
// due is at or beyond the bound), so the serial kernel would schedule
// the segment's children in exactly (parent due, parent seq, child
// index) order. The barrier therefore merges the workers' child
// buffers in that order and assigns seqs from the global counter,
// reproducing the serial assignment bit for bit; execution order —
// and with it every statistic the simulation emits — is identical to
// the serial kernel at any shard count.
//
// Degraded mode. A network that has seen a fault loses its lookahead
// (a dropped worm releases its whole held chain instantly, across
// shards), so Degrade switches the kernel to coordinator-only
// execution: events stay in their shard calendars, but the
// coordinator drains all calendars in global key order on one
// thread. Output is unchanged — only the parallelism is gone.

// childRec is one event scheduled by a worker during a parallel
// segment, buffered until the barrier assigns its global seq. The
// (pdue, pseq, idx) triple is the serial kernel's scheduling order:
// parent execution order, then per-parent child order.
type childRec struct {
	due   Time
	pdue  Time
	pseq  uint64
	idx   uint32
	shard int32 // destination shard; -1 = serial calendar
	fn    Func
	arg   any
}

// Env is the execution context handed to every event body. It names
// the current simulated time and carries the scheduling entry points;
// on the coordinator (and in a plain serial simulator) it schedules
// directly with globally ordered seqs, on a shard worker it buffers
// children for the deterministic barrier merge.
//
// Exactly one Env exists per execution context: the simulator's root
// context for serial execution, one per shard worker. Event bodies
// must not retain it past the call.
type Env struct {
	now   Time
	shard int32        // scratch-slot index: -1 root/serial, else shard
	s     *Simulator   // owning simulator (always non-nil)
	w     *shardWorker // non-nil iff this is a worker context
}

// Now returns the current simulated time in this context.
func (e *Env) Now() Time {
	if e.w != nil {
		return e.now
	}
	return e.s.now
}

// Shard returns the executing shard index, or -1 on the coordinator.
// The network uses it to pick a per-context scratch buffer.
func (e *Env) Shard() int32 { return e.shard }

// Coordinator reports whether this context executes on the
// coordinator thread, where events run in exact global (due, seq)
// order and scheduling assigns final sequence numbers directly.
// Serial simulators are always coordinators.
func (e *Env) Coordinator() bool { return e.w == nil }

// Sim returns the owning simulator. Worker contexts must not touch
// its mutable state; the accessor exists for identity checks.
func (e *Env) Sim() *Simulator { return e.s }

// AddFired reports n model events the running record executed in
// addition to itself. A record that folds several actions due at one
// instant counts as one fired event when it is popped; it reports the
// rest here, so Fired and the event limit keep counting model events.
// Coordinator only: a shard worker's executed records are tallied per
// segment, and nothing that runs there folds actions.
func (e *Env) AddFired(n int) {
	if e.w != nil {
		panic("sim: AddFired on a shard worker")
	}
	e.s.fired += uint64(n)
}

// AtCall schedules a serial-class event at absolute time t.
func (e *Env) AtCall(t Time, fn Func, arg any) { e.AtCallShard(t, fn, arg, -1) }

// AfterCall schedules a serial-class event delay units from now.
func (e *Env) AfterCall(delay Time, fn Func, arg any) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtCallShard(e.Now()+delay, fn, arg, -1)
}

// AfterCallShard schedules an event delay units from now on the given
// shard (-1 = serial class).
func (e *Env) AfterCallShard(delay Time, fn Func, arg any, shard int32) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %v", delay))
	}
	e.AtCallShard(e.Now()+delay, fn, arg, shard)
}

// AtCallShard schedules the action record (fn, arg) at absolute time
// t on the given shard; shard -1 means serial class. On a simulator
// without sharding enabled the shard index is ignored and the call is
// exactly AtCall.
func (e *Env) AtCallShard(t Time, fn Func, arg any, shard int32) {
	if w := e.w; w != nil {
		// Worker context: buffer the child for the barrier merge. The
		// conservative invariant — workers only ever schedule at least
		// one lookahead window ahead — is what makes segment execution
		// safe, so violating it is a loud logic error, not a slow one.
		if fn == nil {
			panic("sim: nil event function scheduled")
		}
		if t < w.segBoundDue {
			panic(fmt.Sprintf("sim: shard %d scheduled into the open segment: t=%v is before bound %v (lookahead violation)",
				w.idx, t, w.segBoundDue))
		}
		if math.IsNaN(t) {
			panic("sim: scheduling at NaN")
		}
		w.kids = append(w.kids, childRec{
			due: t, pdue: w.curDue, pseq: w.curSeq, idx: w.curIdx,
			shard: shard, fn: fn, arg: arg,
		})
		w.curIdx++
		return
	}
	s := e.s
	if fn == nil {
		panic("sim: nil event function scheduled")
	}
	if s.stopped {
		panic("sim: schedule after Stop")
	}
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling into the past: t=%v is before now=%v", t, s.now))
	}
	if math.IsNaN(t) {
		panic("sim: scheduling at NaN")
	}
	ev := event{due: t, seq: s.nextSeq, fn: fn, arg: arg}
	s.nextSeq++
	if sh := s.sh; sh != nil && shard >= 0 {
		sh.cals[shard].push(ev)
		return
	}
	if s.lq != nil {
		s.lq.push(ev)
	} else {
		s.queue.push(ev)
	}
}

// shardWorker owns one shard's calendar and runs its share of each
// parallel segment. Workers 1..K-1 run on their own goroutines;
// shard 0 is driven by the coordinator thread between its other
// duties, so a sharded simulator uses exactly K OS threads while a
// segment is open and one otherwise.
type shardWorker struct {
	idx int32
	cal *ladderQueue
	env Env
	s   *Simulator

	// Segment command (written by the coordinator before gen is
	// bumped, read by the worker after it observes the bump).
	segBoundDue Time
	segBoundSeq uint64

	// Segment results (written by the worker before done is bumped,
	// read by the coordinator after it observes the bump).
	kids   []childRec
	nExec  uint64
	maxDue Time

	// Per-event child bookkeeping during a segment.
	curDue Time
	curSeq uint64
	curIdx uint32

	// gen/done carry the segment handshake; parked+wake are the
	// blocking slow path once the spin budget runs out.
	gen    atomic.Uint32
	done   atomic.Uint32
	parked atomic.Bool
	wake   chan struct{}
	quit   atomic.Bool

	// wfBuf is this worker's wavefront scratch; per-worker so segment
	// drains on different shards never share it.
	wfBuf []event
}

// runSegment drains the worker's calendar up to the published bound,
// buffering every scheduled child.
func (w *shardWorker) runSegment() {
	cal := w.cal
	w.kids = w.kids[:0]
	w.nExec = 0
	bd, bs := w.segBoundDue, w.segBoundSeq
	if w.s.wf {
		w.runSegmentWavefronts(bd, bs)
		return
	}
	for cal.n > 0 {
		e := cal.peek()
		if e.due > bd || (e.due == bd && e.seq >= bs) {
			break
		}
		cal.pop()
		w.env.now = e.due
		w.curDue, w.curSeq, w.curIdx = e.due, e.seq, 0
		w.maxDue = e.due
		w.nExec++
		e.fn(&w.env, e.arg)
	}
}

// runSegmentWavefronts is runSegment draining per-shard wavefronts:
// each front equal-due run below the segment bound comes out of the
// calendar in one sweep and executes in (due, seq) order with the
// per-event child bookkeeping unchanged, so the barrier merge sees
// exactly the buffers the one-at-a-time drain would have produced.
// Children a batch schedules land at or beyond the bound (the
// conservative invariant), so they can never join the open segment.
func (w *shardWorker) runSegmentWavefronts(bd Time, bs uint64) {
	cal := w.cal
	// Executed records' fn/arg references persist in the scratch between
	// batches; release them when the segment closes.
	defer func() { clear(w.wfBuf[:cap(w.wfBuf)]) }()
	for cal.n > 0 {
		wf := cal.popWavefront(w.wfBuf[:0], bd, bs)
		if len(wf) == 0 {
			w.wfBuf = wf
			return
		}
		n := len(wf)
		w.env.now = wf[0].due
		w.maxDue = wf[0].due
		w.nExec += uint64(n)
		for k := 0; k < n; k++ {
			w.curDue, w.curSeq, w.curIdx = wf[k].due, wf[k].seq, 0
			wf[k].fn(&w.env, wf[k].arg)
		}
		w.wfBuf = wf
	}
}

// loop is the body of a worker goroutine: wait for a segment command,
// run it, publish completion. The spin budget keeps barrier latency
// in the tens of nanoseconds while segments are flowing; an idle
// worker parks on its wake channel and costs nothing.
func (w *shardWorker) loop() {
	// last is the last COMPLETED generation, so it must seed from done,
	// not gen: the coordinator may dispatch a segment before this
	// goroutine executes its first instruction, and seeding from gen
	// would mark that segment as already seen — the worker parks
	// forever and the coordinator spins in await.
	last := w.done.Load()
	for {
		const spinBudget = 1 << 14
		spun := 0
		for w.gen.Load() == last {
			if w.quit.Load() {
				return
			}
			spun++
			if spun < spinBudget {
				runtime.Gosched()
				continue
			}
			w.parked.Store(true)
			if w.gen.Load() != last || w.quit.Load() {
				w.parked.Store(false)
				break
			}
			<-w.wake
			w.parked.Store(false)
		}
		if w.quit.Load() {
			return
		}
		last = w.gen.Load()
		w.runSegment()
		w.done.Store(last)
	}
}

// sharded is the kernel state hung off a Simulator by EnableSharding.
type sharded struct {
	k        int
	window   Time // conservative lookahead; 0 until SetLookahead
	cals     []*ladderQueue
	workers  []*shardWorker
	degraded bool
	running  bool

	// gen is the segment generation counter. It lives here — not on a
	// worker — and is never reset, so it stays monotonic across
	// Run/RunUntil calls: a worker's done only ever equals generations
	// that worker actually completed, and a later run can never mistake
	// a previous run's completion for its own (which would skip the
	// segment and re-merge the worker's stale child buffer).
	gen uint32

	// wg tracks live worker goroutines so stopWorkers can join them;
	// without the join a worker that had not yet observed quit could
	// survive into the next run alongside its replacement, racing it
	// on the same shard calendar.
	wg sync.WaitGroup

	// envs[i] is the coordinator-side context for inline execution of
	// shard i's events (scratch slot i, direct scheduling).
	envs []Env

	// merge scratch: per-worker cursor into kids buffers.
	cursors []int
}

// EnableSharding converts the simulator to the sharded kernel with k
// shard calendars. It must be called before any shard-class event is
// scheduled, at most once, and k must be at least 2 (a single shard
// is the serial kernel; callers keep it by simply not enabling
// sharding). The caller must also install the conservative lookahead
// window via SetLookahead before Run; the network does both when its
// configuration asks for shards.
func (s *Simulator) EnableSharding(k int) {
	if k < 2 {
		panic(fmt.Sprintf("sim: EnableSharding with %d shards (want >= 2)", k))
	}
	if s.sh != nil {
		panic("sim: sharding already enabled")
	}
	sh := &sharded{
		k:       k,
		cals:    make([]*ladderQueue, k),
		workers: make([]*shardWorker, k),
		envs:    make([]Env, k),
		cursors: make([]int, k),
	}
	for i := 0; i < k; i++ {
		sh.cals[i] = newLadderQueue()
		w := &shardWorker{idx: int32(i), cal: sh.cals[i], s: s, wake: make(chan struct{}, 1)}
		w.env = Env{shard: int32(i), s: s, w: w}
		sh.workers[i] = w
		sh.envs[i] = Env{shard: int32(i), s: s}
	}
	s.sh = sh
}

// Shards returns the shard count of the sharded kernel, or 1 for a
// serial simulator.
func (s *Simulator) Shards() int {
	if s.sh == nil {
		return 1
	}
	return s.sh.k
}

// SetLookahead installs the conservative window: the minimum delay of
// any cross-shard event a shard-class event can schedule. The network
// sets it to its per-hop channel delay. Scheduling a shard-class
// event on a kernel whose lookahead is zero is still correct — the
// coordinator executes such events inline, one global key at a time —
// but no parallel segment ever opens.
func (s *Simulator) SetLookahead(w Time) {
	if s.sh == nil {
		panic("sim: SetLookahead without sharding enabled")
	}
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("sim: invalid lookahead %v", w))
	}
	s.sh.window = w
}

// Degrade switches a sharded kernel to coordinator-only execution:
// all calendars keep their events but every event now executes on the
// coordinator thread in global (due, seq) order. The network calls it
// when fault state first appears — a degraded network's drop cascades
// release channels across shards at zero delay, so the conservative
// lookahead no longer holds. Degradation is sticky for the rest of
// the run; output is unaffected (the coordinator order IS the serial
// order). Degrading a serial simulator is a no-op.
func (s *Simulator) Degrade() {
	if s.sh != nil {
		s.sh.degraded = true
	}
}

// Degraded reports whether a sharded kernel has fallen back to
// coordinator-only execution.
func (s *Simulator) Degraded() bool { return s.sh != nil && s.sh.degraded }

// Env returns the simulator's root (coordinator) execution context.
// It is valid for code that runs between events or from serial-class
// event bodies — the network's fault entry points use it — never from
// a shard worker.
func (s *Simulator) Env() *Env { return &s.env }

// shardPending sums the events waiting in shard calendars.
func (sh *sharded) pending() int {
	total := 0
	for _, c := range sh.cals {
		total += c.n
	}
	return total
}

// startWorkers spawns goroutines for shards 1..K-1. Shard 0 is driven
// by the coordinator thread.
func (sh *sharded) startWorkers() {
	if sh.running {
		return
	}
	sh.running = true
	for _, w := range sh.workers[1:] {
		w.quit.Store(false)
		sh.wg.Add(1)
		go func() {
			defer sh.wg.Done()
			w.loop()
		}()
	}
}

// stopWorkers terminates the worker goroutines and joins them. Called
// when a run completes so simulators can be dropped without leaking
// goroutines; the join guarantees the next startWorkers never spawns a
// replacement while an old goroutine still services the same worker.
func (sh *sharded) stopWorkers() {
	if !sh.running {
		return
	}
	sh.running = false
	for _, w := range sh.workers[1:] {
		w.quit.Store(true)
		if w.parked.Load() {
			select {
			case w.wake <- struct{}{}:
			default:
			}
		}
	}
	sh.wg.Wait()
}

// dispatch publishes a segment bound to worker w and wakes it.
func (sh *sharded) dispatch(w *shardWorker, boundDue Time, boundSeq uint64, gen uint32) {
	w.segBoundDue, w.segBoundSeq = boundDue, boundSeq
	w.gen.Store(gen)
	if w.parked.Load() {
		select {
		case w.wake <- struct{}{}:
		default:
		}
	}
}

// await spin-waits for worker w to finish generation gen.
func (sh *sharded) await(w *shardWorker, gen uint32) {
	for w.done.Load() != gen {
		runtime.Gosched()
	}
}

// keyLess reports whether (d1, q1) orders before (d2, q2).
func keyLess(d1 Time, q1 uint64, d2 Time, q2 uint64) bool {
	if d1 != d2 {
		return d1 < d2
	}
	return q1 < q2
}

// mergeChildren routes every child buffered during the segment by the
// active workers, assigning global seqs in (parent due, parent seq,
// child index) order — the order the serial kernel would have
// scheduled them in. Each worker's buffer is already sorted by that
// key (workers execute their parents in key order and buffer children
// in per-parent order), so this is a K-way merge.
func (s *Simulator) mergeChildren(active []*shardWorker) {
	sh := s.sh
	cursors := sh.cursors[:0]
	for range active {
		cursors = append(cursors, 0)
	}
	for {
		best := -1
		for i, w := range active {
			c := cursors[i]
			if c >= len(w.kids) {
				continue
			}
			k := &w.kids[c]
			if best < 0 {
				best = i
				continue
			}
			b := &active[best].kids[cursors[best]]
			if keyLess(k.pdue, k.pseq, b.pdue, b.pseq) ||
				(k.pdue == b.pdue && k.pseq == b.pseq && k.idx < b.idx) {
				best = i
			}
		}
		if best < 0 {
			return
		}
		k := &active[best].kids[cursors[best]]
		cursors[best]++
		ev := event{due: k.due, seq: s.nextSeq, fn: k.fn, arg: k.arg}
		s.nextSeq++
		if k.shard >= 0 {
			sh.cals[k.shard].push(ev)
		} else if s.lq != nil {
			s.lq.push(ev)
		} else {
			s.queue.push(ev)
		}
	}
}

// serialFront reports the serial calendar's least key.
func (s *Simulator) serialFront() (d Time, q uint64, ok bool) {
	if s.lq != nil {
		if s.lq.n == 0 {
			return 0, 0, false
		}
		e := s.lq.peek()
		return e.due, e.seq, true
	}
	if s.queue.Len() == 0 {
		return 0, 0, false
	}
	e := s.queue.peek()
	return e.due, e.seq, true
}

// popSerial removes and returns the serial calendar's least event.
func (s *Simulator) popSerial() event {
	if s.lq != nil {
		return s.lq.pop()
	}
	return s.queue.pop()
}

// stepEventLimit enforces the safety valve outside the plain Run loop.
func (s *Simulator) stepEventLimit() {
	if s.limit > 0 && s.fired >= s.limit {
		panic(fmt.Sprintf("sim: event limit %d exceeded at t=%v", s.limit, s.now))
	}
}

// runSharded is the coordinator loop: Run and RunUntil of a sharded
// simulator. horizon is +Inf for Run; for RunUntil only events with
// due <= horizon execute.
func (s *Simulator) runSharded(horizon Time) {
	sh := s.sh
	if !sh.degraded {
		sh.startWorkers()
	}
	defer sh.stopWorkers()

	// horizonBound is the exclusive due bound equivalent to the
	// inclusive horizon: due <= horizon  <=>  due < nextafter(horizon).
	horizonBound := math.Inf(1)
	if !math.IsInf(horizon, 1) {
		horizonBound = math.Nextafter(horizon, math.Inf(1))
	}

	for !s.stopped {
		sd, sq, sOk := s.serialFront()
		// Least shard front.
		var pd Time
		var pq uint64
		pShard := -1
		for i, c := range sh.cals {
			if c.n == 0 {
				continue
			}
			e := c.peek()
			if pShard < 0 || keyLess(e.due, e.seq, pd, pq) {
				pShard, pd, pq = i, e.due, e.seq
			}
		}
		if !sOk && pShard < 0 {
			return // all calendars empty
		}

		// Serial event is globally least: run it inline.
		if sOk && (pShard < 0 || keyLess(sd, sq, pd, pq)) {
			if sd > horizon {
				return
			}
			e := s.popSerial()
			s.now = e.due
			s.fired++
			e.fn(&s.env, e.arg)
			s.stepEventLimit()
			continue
		}

		if pd > horizon {
			return
		}

		// Shard event is globally least. Segment bound: no later than
		// the earliest serial key, the horizon, or one lookahead window
		// past the least shard due.
		boundDue := pd + sh.window
		boundSeq := uint64(0)
		if boundDue > horizonBound {
			boundDue, boundSeq = horizonBound, 0
		}
		if sOk && !keyLess(boundDue, boundSeq, sd, sq) {
			boundDue, boundSeq = sd, sq
		}

		if sh.degraded || sh.window <= 0 {
			// Coordinator-only: run the least shard up to the next
			// other-shard front so execution stays in exact global key
			// order across all calendars on one thread.
			limDue, limSeq := boundDue, boundSeq
			for i, c := range sh.cals {
				if i == pShard || c.n == 0 {
					continue
				}
				e := c.peek()
				if keyLess(e.due, e.seq, limDue, limSeq) {
					limDue, limSeq = e.due, e.seq
				}
			}
			s.runShardInline(pShard, limDue, limSeq)
			continue
		}

		// Active shards: all with front below the bound.
		var active []*shardWorker
		for i, c := range sh.cals {
			if c.n == 0 {
				continue
			}
			e := c.peek()
			if keyLess(e.due, e.seq, boundDue, boundSeq) {
				active = append(active, sh.workers[i])
			}
		}
		if len(active) == 1 {
			// One shard below the bound: drain it on the coordinator —
			// same order, none of the barrier cost.
			s.runShardInline(int(active[0].idx), boundDue, boundSeq)
			continue
		}

		// Parallel segment. Workers 1..K-1 get the bound; shard 0 (if
		// active) runs on this thread.
		sh.gen++
		gen := sh.gen
		var self *shardWorker
		for _, w := range active {
			if w.idx == 0 {
				self = w
				w.segBoundDue, w.segBoundSeq = boundDue, boundSeq
				continue
			}
			sh.dispatch(w, boundDue, boundSeq, gen)
		}
		if self != nil {
			self.runSegment()
		}
		maxDue := s.now
		var nExec uint64
		for _, w := range active {
			if w != self {
				sh.await(w, gen)
			}
			if w.nExec > 0 && w.maxDue > maxDue {
				maxDue = w.maxDue
			}
			nExec += w.nExec
		}
		s.now = maxDue
		s.fired += nExec
		s.mergeChildren(active)
		s.stepEventLimit()
	}
}

// runShardInline drains shard i's calendar on the coordinator thread
// while its front key is below (limDue, limSeq). Children are
// scheduled directly with globally ordered seqs — this is serial
// execution that happens to pop from a shard calendar.
func (s *Simulator) runShardInline(i int, limDue Time, limSeq uint64) {
	sh := s.sh
	cal := sh.cals[i]
	env := &sh.envs[i]
	if s.wf && s.limit == 0 {
		s.runShardInlineWavefronts(i, limDue, limSeq)
		return
	}
	for !s.stopped && cal.n > 0 {
		e := cal.peek()
		if !keyLess(e.due, e.seq, limDue, limSeq) {
			return
		}
		cal.pop()
		if e.due < s.now {
			// The drain limit was computed from the calendar fronts when
			// the drain opened; it is only exact because every delay a
			// shard-class event can schedule is at least the lookahead
			// window (network.Config.validate enforces Ts and DeadWait
			// >= the hop delay on sharded runs). A regressing clock here
			// means an event was scheduled below the open limit — a
			// causality violation that must be loud, not a silent
			// divergence from the serial kernel.
			panic(fmt.Sprintf("sim: shard %d clock regression: event due %v before now=%v (scheduled below the open drain limit)",
				i, e.due, s.now))
		}
		s.now = e.due
		s.fired++
		e.fn(env, e.arg)
		s.stepEventLimit()
	}
}

// runShardInlineWavefronts is runShardInline draining wavefronts:
// identical order (the bound test matches keyLess exactly), identical
// clock-regression guard (a run shares one due, so checking its first
// event checks them all), and a Stop mid-batch re-pushes the
// unexecuted tail with original seqs so Pending matches the
// one-at-a-time drain.
func (s *Simulator) runShardInlineWavefronts(i int, limDue Time, limSeq uint64) {
	sh := s.sh
	cal := sh.cals[i]
	env := &sh.envs[i]
	defer func() { clear(s.wfBuf[:cap(s.wfBuf)]) }()
	for !s.stopped && cal.n > 0 {
		wf := cal.popWavefront(s.wfBuf[:0], limDue, limSeq)
		if len(wf) == 0 {
			s.wfBuf = wf
			return
		}
		if wf[0].due < s.now {
			// See runShardInline: an event below the open drain limit is
			// a causality violation and must be loud.
			panic(fmt.Sprintf("sim: shard %d clock regression: event due %v before now=%v (scheduled below the open drain limit)",
				i, wf[0].due, s.now))
		}
		s.now = wf[0].due
		n := len(wf)
		for k := 0; k < n; k++ {
			if s.stopped {
				for _, e := range wf[k:] {
					cal.push(e)
				}
				break
			}
			s.fired++
			wf[k].fn(env, wf[k].arg)
		}
		s.wfBuf = wf
	}
}
