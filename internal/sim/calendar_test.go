package sim

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
)

// The lane contract: records pushed through the calendar's FIFO delay
// lanes come out in exactly the (due, seq) order of the heap oracle,
// whatever mix of lane and ladder traffic produced them. These
// differentials drive the lanes the way the network model does —
// fixed AfterCall delays and pushes at the running instant — mixed
// with the ladder's traffic: random delays, absolute times in the
// future and same-instant bursts.

// laneClock is what the lane workload needs of a kernel: the
// Simulator (through laneSim) and the heap reference loop both
// provide it.
type laneClock interface {
	Now() Time
	After(d Time, f func())
	At(t Time, f func())
	Stop()
}

// laneSim schedules through the record API the network model uses, so
// fixed delays reach the lanes through AfterCall and pushes at the
// running instant through AtCall.
type laneSim struct{ *Simulator }

func callFunc(_ *Simulator, arg any) { arg.(func())() }

func (c laneSim) After(d Time, f func()) { c.AfterCall(d, callFunc, f) }
func (c laneSim) At(t Time, f func())    { c.AtCall(t, callFunc, f) }

// laneWorkload is one random schedule: a seed for its choices, when to
// Stop (0: never), and the RunUntil horizons to drain through before
// a final Run.
type laneWorkload struct {
	seed     uint64
	stopAt   int
	horizons []Time
}

// The model's two fixed delays, on a quarter-step grid so lane and
// ladder records keep landing on shared instants.
const (
	testHop = 0.5
	testTs  = 1.5
)

// load schedules the workload's roots on c and returns the trace its
// events append to. Every event schedules up to three children, each
// one of: a hop or startup delay (lane traffic), a zero delay through
// After or At (the zero lane), a random grid delay, an absolute grid
// time (ladder traffic, or the zero lane when it is now), or a burst
// of several records at one future instant. The total is capped so a
// schedule stays small.
func (w laneWorkload) load(c laneClock) *[]traceRec {
	trace := new([]traceRec)
	rng := xorshift64(w.seed | 1)
	nextID := 0
	var spawn func(sched func(func()))
	body := func(id int) func() {
		return func() {
			*trace = append(*trace, traceRec{c.Now(), id})
			if len(*trace) == w.stopAt {
				c.Stop()
				return
			}
			for fan := rng.next() % 4; fan > 0 && nextID < 3000; fan-- {
				switch rng.next() % 9 {
				case 0, 1:
					spawn(func(f func()) { c.After(testHop, f) })
				case 2:
					spawn(func(f func()) { c.After(testTs, f) })
				case 3:
					spawn(func(f func()) { c.After(0, f) })
				case 4:
					spawn(func(f func()) { c.At(c.Now(), f) })
				case 5:
					d := Time(rng.next()%12) * 0.25
					spawn(func(f func()) { c.After(d, f) })
				case 6:
					at := c.Now() + Time(rng.next()%12)*0.25
					spawn(func(f func()) { c.At(at, f) })
				case 7:
					at := c.Now() + Time(1+rng.next()%8)*0.25
					for k := 1 + rng.next()%6; k > 0; k-- {
						spawn(func(f func()) { c.At(at, f) })
					}
				case 8:
					// Off the grid: a due no other record shares.
					d := rng.float01() * 3
					spawn(func(f func()) { c.After(d, f) })
				}
			}
		}
	}
	spawn = func(sched func(func())) {
		id := nextID
		nextID++
		sched(body(id))
	}
	for i := 0; i < 6; i++ {
		spawn(func(f func()) { c.At(Time(i%3)*testHop, f) })
	}
	return trace
}

// laneOutcome is everything a drain leaves observable, including what
// each RunUntil call reported.
type laneOutcome struct {
	runOutcome
	stalls []bool
}

func (w laneWorkload) onHeap() laneOutcome {
	ref := &heapSim{}
	trace := w.load(ref)
	var stalls []bool
	for _, h := range w.horizons {
		stalls = append(stalls, errors.Is(ref.runUntil(h), ErrStalled))
	}
	ref.run()
	return laneOutcome{runOutcome{*trace, ref.now, ref.fired, ref.q.Len()}, stalls}
}

func (w laneWorkload) onSim(s *Simulator) laneOutcome {
	trace := w.load(laneSim{s})
	var stalls []bool
	for _, h := range w.horizons {
		stalls = append(stalls, errors.Is(s.RunUntil(h), ErrStalled))
	}
	s.Run()
	return laneOutcome{runOutcome{*trace, s.Now(), s.Fired(), s.Pending()}, stalls}
}

func (w laneWorkload) agree(label string, want, got laneOutcome) error {
	if len(want.trace) != len(got.trace) {
		return fmt.Errorf("%s: ran %d events, reference ran %d", label, len(got.trace), len(want.trace))
	}
	for i := range want.trace {
		if want.trace[i] != got.trace[i] {
			return fmt.Errorf("%s: trace diverges at event %d: got %+v, reference %+v", label, i, got.trace[i], want.trace[i])
		}
	}
	if got.now != want.now || got.fired != want.fired || got.pending != want.pending {
		return fmt.Errorf("%s: (now=%v fired=%d pending=%d), reference (now=%v fired=%d pending=%d)",
			label, got.now, got.fired, got.pending, want.now, want.fired, want.pending)
	}
	for i := range want.stalls {
		if got.stalls[i] != want.stalls[i] {
			return fmt.Errorf("%s: RunUntil(%v) stalled=%v, reference %v", label, w.horizons[i], got.stalls[i], want.stalls[i])
		}
	}
	return nil
}

// TestLanesMatchHeapQuick is the lane differential on the Simulator:
// random lane and ladder traffic, drained through random RunUntil
// horizons and a final Run, with and without a Stop (which can land
// mid-batch), must match the heap oracle's trace, clock, Fired and
// Pending. Each schedule runs on a new Simulator and again on one
// Reset after a different, stopped schedule — so lanes claimed by the
// earlier delays must be given back.
func TestLanesMatchHeapQuick(t *testing.T) {
	batched := 0
	f := func(seed uint64, stop uint16, hs [3]uint8) bool {
		w := laneWorkload{seed: seed}
		if stop%3 != 0 {
			w.stopAt = 1 + int(stop)%1500
		}
		at := Time(0)
		for _, h := range hs {
			at += Time(h%32) * 0.25
			w.horizons = append(w.horizons, at)
		}
		want := w.onHeap()
		fresh := New()
		if err := w.agree("new simulator", want, w.onSim(fresh)); err != nil {
			t.Log(err)
			return false
		}
		if st := fresh.WavefrontStats(); st.Events > st.Batches {
			batched++
		}
		s := New()
		laneWorkload{seed: ^seed, stopAt: 200}.onSim(s)
		s.Reset()
		if err := w.agree("reset simulator", want, w.onSim(s)); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
	if batched == 0 {
		t.Fatal("no schedule formed a multi-record batch")
	}
}

// TestLanePlacementNeverReordersQuick drives the calendar directly:
// every push names a lane (or the ladder) at random, whatever its due,
// so lane pushes land behind a later tail as often as not. The tail
// guard must send those to the ladder, and pop and popWavefront must
// still drain in the heap oracle's order, with first reporting the
// front due.
func TestLanePlacementNeverReordersQuick(t *testing.T) {
	f := func(ops []uint16) bool {
		c, heap := newCalendar(), &eventQueue{}
		var seq uint64
		now := Time(0)
		var buf []event
		for _, op := range ops {
			switch op % 8 {
			case 0:
				if heap.Len() == 0 {
					continue
				}
				wf := c.popWavefront(buf[:0])
				for _, e := range wf {
					he := heap.pop()
					if he.due != e.due || he.seq != e.seq || e.due != wf[0].due {
						return false
					}
					now = e.due
				}
				buf = wf
			case 1:
				if heap.Len() == 0 {
					continue
				}
				if _, due := c.first(); due != heap.peek().due {
					return false
				}
				he, ce := heap.pop(), c.pop()
				if he.due != ce.due || he.seq != ce.seq {
					return false
				}
				now = he.due
			default:
				e := event{due: now + Time(op>>3%16)*0.25, seq: seq, fn: callFunc}
				seq++
				heap.push(e)
				c.push(int(op>>7%(laneCount+1))-1, e.due, e.seq, e.fn, e.arg) // noLane or any lane
			}
			if c.n != heap.Len() {
				return false
			}
		}
		for heap.Len() > 0 {
			he, ce := heap.pop(), c.pop()
			if he.due != ce.due || he.seq != ce.seq {
				return false
			}
		}
		return c.n == 0 && c.lq.n == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// TestLanesClaimFirstDelays pins lane claiming: zero delay always has
// lane 0, the first distinct AfterCall delays claim the others in
// order, a delay seen once all are claimed goes to the ladder, and
// Reset gives every claim back.
func TestLanesClaimFirstDelays(t *testing.T) {
	s := New()
	noop := func(*Simulator, any) {}
	for _, d := range []Time{0, testHop, testTs, 7, testHop, 0, testTs} {
		s.AfterCall(d, noop, nil)
	}
	c := s.queue
	if c.delays != [laneCount]Time{0, testHop, testTs} || c.claimed != laneCount {
		t.Fatalf("lanes claimed %v (%d), want [0 %v %v]", c.delays, c.claimed, testHop, testTs)
	}
	if c.lq.n != 1 || c.n != 7 {
		t.Fatalf("ladder holds %d of %d records, want the one unclaimed delay", c.lq.n, c.n)
	}
	s.Reset()
	s.AfterCall(testTs, noop, nil)
	if c.delays[1] != testTs || c.claimed != 2 || c.lq.n != 0 {
		t.Fatalf("after Reset: lanes %v (%d claimed), ladder %d", c.delays, c.claimed, c.lq.n)
	}
}
