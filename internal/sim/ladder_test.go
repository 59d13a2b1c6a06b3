package sim

import (
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
func drainMatches(t *testing.T, heap, ladder calendar) {
	t.Helper()
	for heap.Len() > 0 {
		if ladder.Len() != heap.Len() {
			t.Fatalf("Len mismatch: heap %d, ladder %d", heap.Len(), ladder.Len())
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
	if ladder.Len() != 0 {
		t.Fatalf("ladder retains %d events after heap drained", ladder.Len())
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
			heap := calendar(&eventQueue{})
			ladder := calendar(newLadderQueue())
			now := Time(0)
			var seq uint64
			push := func(due Time) {
				heap.push(event{due: due, seq: seq, fn: func(*Env, any) {}})
				ladder.push(event{due: due, seq: seq, fn: func(*Env, any) {}})
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
		heap := calendar(&eventQueue{})
		ladder := calendar(newLadderQueue())
		for i, v := range raw {
			// Map the fuzz value onto a mix of magnitudes and repeats.
			due := Time(v%97) * math.Exp2(float64(v%11)-5)
			e := event{due: due, seq: uint64(i), fn: func(*Env, any) {}}
			heap.push(e)
			ladder.push(e)
		}
		for heap.Len() > 0 {
			he, le := heap.pop(), ladder.pop()
			if he.due != le.due || he.seq != le.seq {
				return false
			}
		}
		return ladder.Len() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestLadderBottomSpill forces the out-of-order insert budget over
// ladderBottomMax so the bottom spills into a fresh rung, and checks
// order is preserved through the spill.
func TestLadderBottomSpill(t *testing.T) {
	heap := calendar(&eventQueue{})
	ladder := calendar(newLadderQueue())
	var seq uint64
	push := func(due Time) {
		heap.push(event{due: due, seq: seq, fn: func(*Env, any) {}})
		ladder.push(event{due: due, seq: seq, fn: func(*Env, any) {}})
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
	heap := calendar(&eventQueue{})
	lq := newLadderQueue()
	ladder := calendar(lq)
	var seq uint64
	push := func(due Time) {
		heap.push(event{due: due, seq: seq, fn: func(*Env, any) {}})
		ladder.push(event{due: due, seq: seq, fn: func(*Env, any) {}})
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
	if c := cap(lq.bottom); c > block {
		t.Errorf("bottom capacity %d after %d in-order pushes, want at most %d", c, pushes, block)
	}
	drainMatches(t, heap, ladder)
}

// TestLadderDeepRecursion drains 10⁵ events packed into a narrow
// window, exercising rung-spawn recursion well past one level, plus a
// same-instant block too large for any threshold.
func TestLadderDeepRecursion(t *testing.T) {
	heap := calendar(&eventQueue{})
	ladder := calendar(newLadderQueue())
	rng := xorshift64(99)
	var seq uint64
	push := func(due Time) {
		heap.push(event{due: due, seq: seq, fn: func(*Env, any) {}})
		ladder.push(event{due: due, seq: seq, fn: func(*Env, any) {}})
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
	heap := calendar(&eventQueue{})
	ladder := calendar(newLadderQueue())
	times := []Time{
		0, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		1e-300, 1e300, math.MaxFloat64, math.Inf(1),
		1.5, 1.5, 0.003, 3.0000000000000004, 3.0000000000000004,
	}
	for i, due := range times {
		e := event{due: due, seq: uint64(i), fn: func(*Env, any) {}}
		heap.push(e)
		ladder.push(e)
	}
	// Interleave pops with more pushes at popped times (legal: == now).
	for k := 0; k < 4; k++ {
		he, le := heap.pop(), ladder.pop()
		if he.due != le.due || he.seq != le.seq {
			t.Fatalf("pop %d mismatch: heap (due=%v seq=%d), ladder (due=%v seq=%d)", k, he.due, he.seq, le.due, le.seq)
		}
		e := event{due: he.due, seq: uint64(len(times) + k), fn: func(*Env, any) {}}
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

// TestCalendarNames pins the CLI names of the calendar knob.
func TestCalendarNames(t *testing.T) {
	for _, c := range []Calendar{Ladder, Heap} {
		got, err := ParseCalendar(c.String())
		if err != nil || got != c {
			t.Fatalf("ParseCalendar(%q) = %v, %v; want %v", c.String(), got, err, c)
		}
	}
	if _, err := ParseCalendar("btree"); err == nil {
		t.Fatal("ParseCalendar accepted an unknown name")
	}
	if Calendar(42).String() == "" {
		t.Fatal("unknown Calendar stringer returned empty")
	}
}

// TestDefaultCalendarKnob checks the process-wide default switches
// what New builds, and that NewWithCalendar reports its kind.
func TestDefaultCalendarKnob(t *testing.T) {
	defer SetDefaultCalendar(Ladder)
	if New().Calendar() != Ladder {
		t.Fatal("default calendar is not the ladder")
	}
	SetDefaultCalendar(Heap)
	if New().Calendar() != Heap {
		t.Fatal("SetDefaultCalendar(Heap) did not take")
	}
	if NewWithCalendar(Ladder).Calendar() != Ladder {
		t.Fatal("NewWithCalendar(Ladder) mislabeled")
	}
	mustPanicWith(t, "sim: unknown calendar 42", func() { NewWithCalendar(Calendar(42)) })
}

// TestSimulatorsAgreeAcrossCalendars runs the same self-scheduling
// workload on a heap simulator and a ladder simulator and compares
// clocks, event counts and execution traces — the kernel-level version
// of the golden byte-identity the scenario tests pin.
func TestSimulatorsAgreeAcrossCalendars(t *testing.T) {
	run := func(c Calendar) (trace []Time, fired uint64) {
		s := NewWithCalendar(c)
		rng := xorshift64(7)
		var grow Func
		grow = func(_ *Env, arg any) {
			depth := arg.(int)
			trace = append(trace, s.Now())
			if depth >= 12 {
				return
			}
			fan := 1 + int(rng.next()%3)
			for i := 0; i < fan; i++ {
				s.AfterCall(Time(rng.next()%5)*0.25, grow, depth+1)
			}
		}
		for i := 0; i < 8; i++ {
			s.AtCall(Time(i)*0.5, grow, 0)
		}
		s.Run()
		return trace, s.Fired()
	}
	ht, hf := run(Heap)
	lt, lf := run(Ladder)
	if hf != lf {
		t.Fatalf("fired: heap %d, ladder %d", hf, lf)
	}
	for i := range ht {
		if ht[i] != lt[i] {
			t.Fatalf("trace diverges at event %d: heap t=%v, ladder t=%v", i, ht[i], lt[i])
		}
	}
}
