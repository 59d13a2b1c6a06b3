package sim

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

// The lane contract: records pushed through the calendar's FIFO delay
// lanes come out in exactly the (due, seq) order of the heap oracle,
// whatever mix of lane and ladder traffic produced them. These
// differentials drive the lanes the way the network model does —
// fixed AfterCall delays and pushes at the running instant — mixed
// with the ladder's traffic: random delays, absolute times in the
// future and same-instant bursts — and with chains pushed under
// reserved seqs, each link pushing the next, as a worm's drain tail
// is.

// laneClock is what the lane workload needs of a kernel: the
// Simulator (through laneSim) and the heap reference loop both
// provide it.
type laneClock interface {
	Now() Time
	After(d Time, f func())
	At(t Time, f func())
	Reserve(n int) uint64
	AtSeq(t Time, seq uint64, f func())
	Stop()
}

// laneSim schedules through the record API the network model uses, so
// fixed delays reach the lanes through AfterCall and pushes at the
// running instant through AtCall.
type laneSim struct{ *Simulator }

func callFunc(_ *Simulator, arg any) { arg.(func())() }

func (c laneSim) After(d Time, f func()) { c.AfterCall(d, callFunc, f) }
func (c laneSim) At(t Time, f func())    { c.AtCall(t, callFunc, f) }
func (c laneSim) Reserve(n int) uint64   { return c.ReserveSeqs(n) }
func (c laneSim) AtSeq(t Time, seq uint64, f func()) {
	c.AtCallSeq(t, seq, callFunc, f)
}

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
// time (ladder traffic, or the zero lane when it is now), a burst
// of several records at one future instant, or a chain: up to six
// links under seqs reserved now, the first due now or soon, each
// pushing the next a grid step or an off-grid jitter later before it
// runs its own body. Links sort before records pushed after the
// reservation at the same instant. The total is capped so a schedule
// stays small.
func (w laneWorkload) load(c laneClock) *[]traceRec {
	trace := new([]traceRec)
	rng := xorshift64(w.seed | 1)
	nextID := 0
	var spawn func(sched func(func()))
	var chain func(first, i, k uint64, at Time)
	body := func(id int) func() {
		return func() {
			*trace = append(*trace, traceRec{c.Now(), id})
			if len(*trace) == w.stopAt {
				c.Stop()
				return
			}
			for fan := rng.next() % 4; fan > 0 && nextID < 3000; fan-- {
				switch rng.next() % 10 {
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
				case 9:
					k := 1 + rng.next()%6
					chain(c.Reserve(int(k)), 0, k, c.Now()+Time(rng.next()%3)*0.25)
				}
			}
		}
	}
	spawn = func(sched func(func())) {
		id := nextID
		nextID++
		sched(body(id))
	}
	chain = func(first, i, k uint64, at Time) {
		spawn(func(f func()) {
			c.AtSeq(at, first+i, func() {
				if i+1 < k {
					step := Time(1+rng.next()%3) * 0.25
					if rng.next()%2 == 0 {
						step = 0.001 + rng.float01()*0.5
					}
					chain(first, i+1, k, c.Now()+step)
				}
				f()
			})
		})
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
// so lane pushes land behind a later tail as often as not, and about
// a quarter of pushes carry an older seq reserved earlier, as
// AtCallSeq's records do. The (due, seq) guards must send misfits to
// the ladder, every ladder tier must slot an old seq in order —
// including a push due exactly at topStart while the rungs or bottom
// hold that instant under larger seqs — and pop and popWavefront must
// still drain in the heap oracle's order, with first reporting the
// front due. Schedules run to a few thousand operations, so the
// ladder spawns rungs.
func TestLanePlacementNeverReordersQuick(t *testing.T) {
	// Old-seq pushes that reached each ladder tier, and those due at
	// topStart behind a larger seq there.
	var top, rungs, bottom, atTopStart int
	f := func(seed uint64, size uint8) bool {
		rng := xorshift64(seed | 1)
		c, heap := newCalendar(), &eventQueue{}
		var seq uint64
		var reserved []uint64
		now := Time(0)
		var buf []event
		for range 64 + 16*int(size) {
			op := rng.next()
			switch op % 10 {
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
			case 2:
				for k := op >> 8 % 8; k > 0; k-- {
					reserved = append(reserved, seq)
					seq++
				}
			default:
				e := event{due: now + Time(op>>3%32)*0.25, seq: seq, fn: callFunc}
				old := op>>12%4 == 0 && len(reserved) > 0
				if old {
					j := int(op >> 16 % uint64(len(reserved)))
					e.seq = reserved[j]
					reserved[j] = reserved[len(reserved)-1]
					reserved = reserved[:len(reserved)-1]
					if ts := c.lq.topStart; op>>24%4 == 0 && ts >= now && !math.IsInf(ts, 0) {
						e.due = ts
						for _, it := range heap.items {
							if it.due == ts && it.seq > e.seq {
								atTopStart++
								break
							}
						}
					}
				} else {
					seq++
				}
				inLadder, rung := c.lq.n, c.lq.active > 0
				heap.push(e)
				c.push(int(op>>7%(laneCount+1))-1, e.due, e.seq, e.fn, e.arg) // noLane or any lane
				if old && c.lq.n > inLadder {
					switch {
					case e.due > c.lq.topStart:
						top++
					case rung:
						rungs++
					default:
						bottom++
					}
				}
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
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
	if top == 0 || rungs == 0 || bottom == 0 || atTopStart == 0 {
		t.Fatalf("old-seq pushes reached top %d, rungs %d, bottom %d times and topStart behind a larger seq %d times; want each at least once",
			top, rungs, bottom, atTopStart)
	}
}

// TestLanesClaimFirstDelays pins the lane layout: zero delay always
// has lane 0, the first distinct AfterCall delays claim lanes 1 and 2
// in order, a delay seen once both are claimed goes to the ladder,
// AtCallSeq's records take the tail lane (lane 0 when due now), and
// Reset gives every claim back.
func TestLanesClaimFirstDelays(t *testing.T) {
	s := New()
	noop := func(*Simulator, any) {}
	for _, d := range []Time{0, testHop, testTs, 7, testHop, 0, testTs} {
		s.AfterCall(d, noop, nil)
	}
	c := s.queue
	if c.delays != [tailLane]Time{0, testHop, testTs} || c.claimed != tailLane {
		t.Fatalf("lanes claimed %v (%d), want [0 %v %v]", c.delays, c.claimed, testHop, testTs)
	}
	if c.lq.n != 1 || c.n != 7 {
		t.Fatalf("ladder holds %d of %d records, want the one unclaimed delay", c.lq.n, c.n)
	}
	laneLen := func(k int) int {
		n := 0
		for i := c.lanes[k].head; i >= 0; i = c.lq.nodes[i].next {
			n++
		}
		return n
	}
	seq := s.ReserveSeqs(3)
	s.AtCallSeq(2, seq+1, noop, nil)
	s.AtCallSeq(3, seq+2, noop, nil)
	s.AtCallSeq(0, seq, noop, nil)
	if laneLen(tailLane) != 2 || laneLen(0) != 3 || c.lq.n != 1 {
		t.Fatalf("reserved-seq records: tail lane %d, lane 0 %d, ladder %d; want 2, 3, 1",
			laneLen(tailLane), laneLen(0), c.lq.n)
	}
	mustPanicWith(t, fmt.Sprintf("sim: AtCallSeq with unreserved seq %d", seq+3),
		func() { s.AtCallSeq(4, seq+3, noop, nil) })
	s.Reset()
	s.AfterCall(testTs, noop, nil)
	if c.delays[1] != testTs || c.claimed != 2 || c.lq.n != 0 {
		t.Fatalf("after Reset: lanes %v (%d claimed), ladder %d", c.delays, c.claimed, c.lq.n)
	}
}
