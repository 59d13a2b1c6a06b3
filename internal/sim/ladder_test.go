package sim

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// xorshift64 is a tiny deterministic generator for the differential
// drivers — test behavior must not depend on the seed corpus of the
// standard library's rand.
type xorshift64 uint64

func (x *xorshift64) next() uint64 {
	v := *x
	v ^= v << 13
	v ^= v >> 7
	v ^= v << 17
	*x = v
	return uint64(v)
}

// float01 returns a uniform float in [0, 1).
func (x *xorshift64) float01() float64 {
	return float64(x.next()>>11) / (1 << 53)
}

// drainMatches pops both calendars dry, asserting every event emerges
// in the identical (due, seq) order.
func drainMatches(t *testing.T, heap *eventQueue, ladder *ladderQueue) {
	t.Helper()
	for heap.Len() > 0 {
		if ladder.n != heap.Len() {
			t.Fatalf("Len mismatch: heap %d, ladder %d", heap.Len(), ladder.n)
		}
		hp, lp := heap.peek(), ladder.peek()
		if hp.due != lp.due || hp.seq != lp.seq {
			t.Fatalf("peek mismatch: heap (due=%v seq=%d), ladder (due=%v seq=%d)", hp.due, hp.seq, lp.due, lp.seq)
		}
		he, le := heap.pop(), ladder.pop()
		if he.due != le.due || he.seq != le.seq {
			t.Fatalf("pop mismatch: heap (due=%v seq=%d), ladder (due=%v seq=%d)", he.due, he.seq, le.due, le.seq)
		}
	}
	if ladder.n != 0 {
		t.Fatalf("ladder retains %d events after heap drained", ladder.n)
	}
}

// TestLadderMatchesHeapRegimes feeds the same randomized schedule into
// the heap and the ladder under the workload regimes that stress
// different tiers, interleaving pushes with pops (as the simulator
// does) and asserting the drains are bit-for-bit identical. CI runs
// the whole suite under -race as well.
func TestLadderMatchesHeapRegimes(t *testing.T) {
	regimes := []struct {
		name  string
		seed  uint64
		delta func(x *xorshift64) Time
		burst int // max extra same-instant events per push
	}{
		{"uniform", 1, func(x *xorshift64) Time { return x.float01() * 100 }, 0},
		{"heavy-ties", 2, func(x *xorshift64) Time { return Time(x.next() % 8) }, 0},
		{"same-instant-bursts", 3, func(x *xorshift64) Time { return 0.003 * Time(1+x.next()%4) }, 24},
		{"hop-timing", 4, func(x *xorshift64) Time {
			// The wormhole mix: hop delay, flit drain, startup.
			d := []Time{0.003, 0.003, 0.003, 0.192, 1.5, 3.0}
			return d[x.next()%uint64(len(d))]
		}, 12},
		{"wide-range", 5, func(x *xorshift64) Time { return math.Exp2(float64(x.next()%64)) * x.float01() }, 0},
		{"tiny-spans", 6, func(x *xorshift64) Time { return 1e-12 * Time(x.next()%16) }, 8},
		{"zero-delta", 7, func(x *xorshift64) Time { return Time(x.next()%3) * 0.5 }, 4},
	}
	for _, rg := range regimes {
		t.Run(rg.name, func(t *testing.T) {
			rng := xorshift64(rg.seed)
			heap := &eventQueue{}
			ladder := newLadderQueue()
			now := Time(0)
			var seq uint64
			push := func(due Time) {
				heap.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
				ladder.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
				seq++
			}
			for step := 0; step < 60000; step++ {
				switch {
				case rng.next()%10 < 4 && heap.Len() > 0:
					he, le := heap.pop(), ladder.pop()
					if he.due != le.due || he.seq != le.seq {
						t.Fatalf("step %d: heap popped (due=%v seq=%d), ladder (due=%v seq=%d)",
							step, he.due, he.seq, le.due, le.seq)
					}
					now = he.due
				default:
					due := now + rg.delta(&rng)
					push(due)
					if rg.burst > 0 {
						for k := uint64(0); k < rng.next()%uint64(rg.burst+1); k++ {
							push(due)
						}
					}
				}
			}
			drainMatches(t, heap, ladder)
		})
	}
}

// TestLadderMatchesHeapQuick drives both calendars with arbitrary
// time lists from testing/quick, pushing everything then draining —
// the pure priority-queue contract.
func TestLadderMatchesHeapQuick(t *testing.T) {
	f := func(raw []uint32) bool {
		heap := &eventQueue{}
		ladder := newLadderQueue()
		for i, v := range raw {
			// Map the fuzz value onto a mix of magnitudes and repeats.
			due := Time(v%97) * math.Exp2(float64(v%11)-5)
			e := event{due: due, seq: uint64(i), fn: func(*Simulator, any) {}}
			heap.push(e)
			ladder.push(e)
		}
		for heap.Len() > 0 {
			he, le := heap.pop(), ladder.pop()
			if he.due != le.due || he.seq != le.seq {
				return false
			}
		}
		return ladder.n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLadderBottomSpill forces the out-of-order insert budget over
// ladderBottomMax so the bottom spills into a fresh rung, and checks
// order is preserved through the spill.
func TestLadderBottomSpill(t *testing.T) {
	heap := &eventQueue{}
	ladder := newLadderQueue()
	var seq uint64
	push := func(due Time) {
		heap.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
		ladder.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
		seq++
	}
	// A big far-future block lands in top, converts to a wide bottom
	// window on the first pop...
	for i := 0; i < 2*ladderBottomMax; i++ {
		push(1000 + Time(i)/7)
	}
	he, le := heap.pop(), ladder.pop()
	if he.seq != le.seq {
		t.Fatalf("first pop diverged: heap seq %d, ladder seq %d", he.seq, le.seq)
	}
	// ...then a stream of earlier-and-earlier events forces repeated
	// out-of-order inserts until the spill threshold trips.
	for i := 0; i < 4*ladderBottomMax; i++ {
		push(1000 + Time(4*ladderBottomMax-i)/29)
	}
	drainMatches(t, heap, ladder)
}

// TestLadderBottomStaysBounded feeds the bottom window in order while
// it drains, so it never empties: the array must reuse its consumed
// prefix rather than grow with every event that passes through, and
// the drain order must still match the heap's.
func TestLadderBottomStaysBounded(t *testing.T) {
	heap := &eventQueue{}
	ladder := newLadderQueue()
	var seq uint64
	push := func(due Time) {
		heap.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
		ladder.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
		seq++
	}
	// A block over [0, 1000) becomes a rung on the first pop, and its
	// first bucket, [0, 62.5), drains into the bottom window.
	const block, pushes = 1024, 100 * 1024
	for i := 0; i < block; i++ {
		push(Time(i) * 1000 / block)
	}
	// Every later push lands past the bottom's last due but inside that
	// consumed bucket, so it appends to the bottom as the pops drain it.
	at := Time(61.6)
	for i := 0; i < pushes; i++ {
		he, le := heap.pop(), ladder.pop()
		if he.seq != le.seq {
			t.Fatalf("pop %d diverged: heap seq %d, ladder seq %d", i, he.seq, le.seq)
		}
		at += 1e-6
		push(at)
	}
	if c := cap(ladder.bottom); c > block {
		t.Errorf("bottom capacity %d after %d in-order pushes, want at most %d", c, pushes, block)
	}
	drainMatches(t, heap, ladder)
}

// TestLadderDeepRecursion drains 10⁵ events packed into a narrow
// window, exercising rung-spawn recursion well past one level, plus a
// same-instant block too large for any threshold.
func TestLadderDeepRecursion(t *testing.T) {
	heap := &eventQueue{}
	ladder := newLadderQueue()
	rng := xorshift64(99)
	var seq uint64
	push := func(due Time) {
		heap.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
		ladder.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
		seq++
	}
	for i := 0; i < 100000; i++ {
		push(5 + rng.float01())
	}
	for i := 0; i < 3000; i++ {
		push(5.5) // one instant, far over every threshold: must stay FIFO
	}
	drainMatches(t, heap, ladder)
}

// TestLadderExtremeTimes covers the float edge cases the bucket maps
// must route monotonically: subnormal spans, huge magnitudes, +Inf.
func TestLadderExtremeTimes(t *testing.T) {
	heap := &eventQueue{}
	ladder := newLadderQueue()
	times := []Time{
		0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		1e-300, 1e300, math.MaxFloat64, math.Inf(1),
		1.5, 1.5, 0.003, 3.0000000000000004, 3.0000000000000004,
	}
	for i, due := range times {
		e := event{due: due, seq: uint64(i), fn: func(*Simulator, any) {}}
		heap.push(e)
		ladder.push(e)
	}
	// Interleave pops with more pushes at popped times (legal: == now).
	for k := 0; k < 4; k++ {
		he, le := heap.pop(), ladder.pop()
		if he.due != le.due || he.seq != le.seq {
			t.Fatalf("pop %d mismatch: heap (due=%v seq=%d), ladder (due=%v seq=%d)", k, he.due, he.seq, le.due, le.seq)
		}
		e := event{due: he.due, seq: uint64(len(times) + k), fn: func(*Simulator, any) {}}
		heap.push(e)
		ladder.push(e)
	}
	drainMatches(t, heap, ladder)
}

// TestLadderEmptyPanics pins the misuse panics on the ladder, matching
// the heap's text exactly.
func TestLadderEmptyPanics(t *testing.T) {
	q := newLadderQueue()
	mustPanicWith(t, "sim: pop from empty calendar", func() { q.pop() })
	mustPanicWith(t, "sim: peek at empty calendar", func() { q.peek() })
}

// clock is what the self-scheduling workload needs of a kernel: the
// Simulator (through simClock) and the heap reference loop both
// provide it.
type clock interface {
	Now() Time
	After(d Time, f func())
	Stop()
}

// simClock adapts a Simulator to clock.
type simClock struct{ *Simulator }

func (c simClock) After(d Time, f func()) { c.Simulator.After(d, f) }

// traceRec is one executed event: when it ran and which it was.
type traceRec struct {
	at Time
	id int
}

// selfScheduling loads a branching workload onto c and returns the
// trace its events append to as they run. Eight roots share t=0, so
// the first batch holds at least eight records; every event schedules
// 0–3 children at delays of 0–1 µs in quarter steps (a zero delay
// lands on the running instant, behind the batch in flight), and the
// stopAt-th event to run (1-based; 0 = never) calls Stop instead of
// scheduling.
func selfScheduling(c clock, stopAt int) *[]traceRec {
	trace := new([]traceRec)
	rng := xorshift64(7)
	nextID := 0
	var spawn func(depth int, delay Time)
	spawn = func(depth int, delay Time) {
		id := nextID
		nextID++
		c.After(delay, func() {
			*trace = append(*trace, traceRec{c.Now(), id})
			if len(*trace) == stopAt {
				c.Stop()
				return
			}
			if depth >= 10 {
				return
			}
			fan := uint64(2) // roots
			if depth > 0 {
				fan = rng.next() % 4
			}
			for ; fan > 0; fan-- {
				spawn(depth+1, Time(rng.next()%5)*0.25)
			}
		})
	}
	for i := 0; i < 8; i++ {
		spawn(0, 0)
	}
	return trace
}

// runOutcome is everything a drain leaves observable.
type runOutcome struct {
	trace   []traceRec
	now     Time
	fired   uint64
	pending int
}

func compareOutcomes(t *testing.T, label string, want, got runOutcome) {
	t.Helper()
	if len(want.trace) != len(got.trace) {
		t.Fatalf("%s: ran %d events, reference ran %d", label, len(got.trace), len(want.trace))
	}
	for i := range want.trace {
		if want.trace[i] != got.trace[i] {
			t.Fatalf("%s: trace diverges at event %d: got %+v, reference %+v", label, i, got.trace[i], want.trace[i])
		}
	}
	if got.now != want.now || got.fired != want.fired || got.pending != want.pending {
		t.Fatalf("%s: (now=%v fired=%d pending=%d), reference (now=%v fired=%d pending=%d)",
			label, got.now, got.fired, got.pending, want.now, want.fired, want.pending)
	}
}

// stopPoints are the selfScheduling stop positions every differential
// covers: never, inside the first batch (the eight t=0 roots), and
// two points deep in the run.
var stopPoints = []int{0, 3, 137, 600}

// TestSimulatorsAgreeAcrossCalendars runs the self-scheduling workload
// on a Simulator (ladder calendar, batched drain) and on the heap
// reference loop (one record at a time) and compares the execution
// traces, clocks, event counts and what stays pending — the
// kernel-level version of the golden byte-identity the scenario tests
// pin. The Stop cases cover a Stop landing mid-batch, whose unexecuted
// remainder must still count as pending.
func TestSimulatorsAgreeAcrossCalendars(t *testing.T) {
	for _, stopAt := range stopPoints {
		ref := &heapSim{}
		refTrace := selfScheduling(ref, stopAt)
		ref.run()
		want := runOutcome{*refTrace, ref.now, ref.fired, ref.q.Len()}
		if len(want.trace) < 1000 && stopAt == 0 {
			t.Fatalf("workload ran only %d events", len(want.trace))
		}

		s := New()
		trace := selfScheduling(simClock{s}, stopAt)
		s.Run()
		compareOutcomes(t, fmt.Sprintf("stopAt=%d", stopAt), want, runOutcome{*trace, s.Now(), s.Fired(), s.Pending()})
		if stopAt == 3 && s.Pending() < 5 {
			t.Fatalf("stop inside the first batch left %d pending, want the batch's 5 unexecuted roots at least", s.Pending())
		}
	}
}

// TestRunMatchesStepLoop is the drain-loop differential on the real
// Simulator: Run's batched drain must leave exactly the state a plain
// Step loop does, Stop mid-batch included.
func TestRunMatchesStepLoop(t *testing.T) {
	for _, stopAt := range stopPoints {
		stepper := New()
		stepTrace := selfScheduling(simClock{stepper}, stopAt)
		for stepper.Step() {
		}
		want := runOutcome{*stepTrace, stepper.Now(), stepper.Fired(), stepper.Pending()}

		s := New()
		trace := selfScheduling(simClock{s}, stopAt)
		s.Run()
		compareOutcomes(t, fmt.Sprintf("stopAt=%d", stopAt), want, runOutcome{*trace, s.Now(), s.Fired(), s.Pending()})
		if st := s.WavefrontStats(); st.Events <= st.Batches {
			t.Fatalf("Run drained %d records in %d batches: no multi-record batch formed", st.Events, st.Batches)
		}
	}
}

// TestResetMatchesNew: a simulator Reset after another run — one
// stopped deep in its workload, so Reset discards pending records —
// must replay a workload exactly as a new simulator does, and keep no
// reference to a discarded record's action.
func TestResetMatchesNew(t *testing.T) {
	for _, stopAt := range stopPoints {
		fresh := New()
		trace := selfScheduling(simClock{fresh}, stopAt)
		fresh.Run()
		want := runOutcome{*trace, fresh.Now(), fresh.Fired(), fresh.Pending()}

		s := New()
		selfScheduling(simClock{s}, 600)
		s.Run()
		if s.Pending() == 0 {
			t.Fatal("prior run left nothing pending to discard")
		}
		s.Reset()
		if s.Now() != 0 || s.Fired() != 0 || s.Pending() != 0 || s.Stopped() || s.WavefrontStats() != (WavefrontStats{}) {
			t.Fatalf("reset simulator: now=%v fired=%d pending=%d stopped=%v %+v",
				s.Now(), s.Fired(), s.Pending(), s.Stopped(), s.WavefrontStats())
		}
		for i, nd := range s.queue.lq.nodes[:cap(s.queue.lq.nodes)] {
			if nd.fn != nil || nd.arg != nil {
				t.Fatalf("arena slot %d still holds a discarded record", i)
			}
		}
		trace = selfScheduling(simClock{s}, stopAt)
		s.Run()
		label := fmt.Sprintf("stopAt=%d", stopAt)
		compareOutcomes(t, label, want, runOutcome{*trace, s.Now(), s.Fired(), s.Pending()})
		if got := s.WavefrontStats(); got != fresh.WavefrontStats() {
			t.Fatalf("%s: wavefront census %+v, new simulator %+v", label, got, fresh.WavefrontStats())
		}
	}
}
