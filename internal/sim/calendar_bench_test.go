package sim

import (
	"fmt"
	"testing"
)

// Classic hold-model benchmark: the queue is prefilled to a steady
// pending size n, then every operation pops the earliest event and
// pushes a replacement at popped.due + increment — the standard way
// to measure a simulation event calendar at constant occupancy.
//
//	go test ./internal/sim -bench BenchmarkHold -benchmem
//
// The increments mirror the wormhole workload's mix (hop delay, flit
// drain, startup latency) including same-instant repeats, which is
// exactly the shape the ladder's deferred-sort fast path targets.
// The fixed-delay case is the shape the calendar's lanes take.

// holdDeltas is the increment mix; index with a cheap counter so heap
// and ladder see identical schedules.
var holdDeltas = [8]Time{0.003, 0.003, 0, 0.192, 0.003, 1.5, 0, 0.06}

// holdCalendar is what the hold model needs of a calendar: the ladder
// and the heap oracle it is measured against both provide it.
type holdCalendar interface {
	push(event)
	pop() event
}

// holdKinds names the calendars the hold model measures.
var holdKinds = []struct {
	name string
	new  func() holdCalendar
}{
	{"heap", func() holdCalendar { return &eventQueue{} }},
	{"ladder", func() holdCalendar { return newLadderQueue() }},
}

// holdQueue prefills q with n events using a deterministic schedule.
func holdQueue(q holdCalendar, n int) (holdCalendar, uint64) {
	rng := xorshift64(2005)
	var seq uint64
	for i := 0; i < n; i++ {
		q.push(event{due: rng.float01() * 4, seq: seq, fn: func(*Simulator, any) {}})
		seq++
	}
	return q, seq
}

// holdOps runs k hold operations (pop one, push one) on q.
func holdOps(q holdCalendar, seq *uint64, k int) {
	for i := 0; i < k; i++ {
		e := q.pop()
		q.push(event{due: e.due + holdDeltas[*seq%uint64(len(holdDeltas))], seq: *seq, fn: e.fn})
		*seq++
	}
}

// holdFixedDelays are the fixed-delay case's increments: the model's
// hop and startup delays and the running instant, one lane each.
var holdFixedDelays = [4]Time{0.003, 0.003, 1.5, 0}

// holdFixed is the fixed-delay case's record: when it fires it
// schedules its replacement at the next fixed delay, through
// AfterCall as the network does, so the pushes take the calendar's
// FIFO lanes.
func holdFixed(s *Simulator, _ any) {
	s.AfterCall(holdFixedDelays[s.Fired()%uint64(len(holdFixedDelays))], holdFixed, nil)
}

// holdSim prefills a Simulator with n holdFixed records at random
// times (those go to the ladder, which drains as the lanes fill).
func holdSim(n int) *Simulator {
	s := New()
	rng := xorshift64(2005)
	for i := 0; i < n; i++ {
		s.AtCall(rng.float01()*4, holdFixed, nil)
	}
	return s
}

// holdChainJitter are the tail-chain case's increments: about one flit
// time β, jittered so chains interleave out of step with one another.
var holdChainJitter = [4]Time{0.003, 0.0031, 0.0029, 0.006}

// holdChainLinks is how many seqs a tail-chain record reserves at once.
const holdChainLinks = 8

// holdLink is a tail-chain record's state: the next of its reserved
// seqs and how many of them are left.
type holdLink struct {
	seq  uint64
	left int
}

// holdChain is the tail-chain case's record: when it fires it
// re-pushes itself a jittered near-future step later under the next of
// its reserved seqs, through AtCallSeq as a draining worm does, and
// reserves a fresh block once the last is used.
func holdChain(s *Simulator, arg any) {
	l := arg.(*holdLink)
	if l.left == 0 {
		l.seq, l.left = s.ReserveSeqs(holdChainLinks), holdChainLinks
	}
	s.AtCallSeq(s.Now()+holdChainJitter[s.Fired()%uint64(len(holdChainJitter))], l.seq, holdChain, l)
	l.seq++
	l.left--
}

// holdChainSim prefills a Simulator with n holdChain records at random
// times.
func holdChainSim(n int) *Simulator {
	s := New()
	rng := xorshift64(2005)
	for i := 0; i < n; i++ {
		s.AtCall(rng.float01()*4, holdChain, &holdLink{})
	}
	return s
}

// holdSteps runs k hold operations on s: each Step pops one record,
// which pushes its replacement.
func holdSteps(s *Simulator, k int) {
	for i := 0; i < k; i++ {
		s.Step()
	}
}

// BenchmarkHold measures steady-state push+pop cost per event for the
// heap and ladder calendars at the paper workloads' pending sizes
// (10² is an uncontended broadcast, 10³–10⁴ the saturation studies)
// plus 10⁵ as the scaling stress the heap's O(log n) sift feels most.
// The fixed-delay case runs the hold model through a Simulator whose
// every push is one of the model's fixed delays: the calendar's lanes.
// The tail-chain case's records re-push themselves under reserved
// seqs, as drain tails do: the tail lane, and the ladder for the links
// that arrive out of step.
func BenchmarkHold(b *testing.B) {
	for _, kind := range holdKinds {
		for _, n := range []int{100, 10000, 100000} {
			b.Run(fmt.Sprintf("%s/n=%d", kind.name, n), func(b *testing.B) {
				q, seq := holdQueue(kind.new(), n)
				holdOps(q, &seq, n) // reach steady state
				b.ReportAllocs()
				b.ResetTimer()
				holdOps(q, &seq, b.N)
			})
		}
	}
	for _, n := range []int{100, 10000, 100000} {
		b.Run(fmt.Sprintf("fixed-delay/n=%d", n), func(b *testing.B) {
			s := holdSim(n)
			holdSteps(s, 2*n) // drain the random prefill into the lanes
			b.ReportAllocs()
			b.ResetTimer()
			holdSteps(s, b.N)
		})
		b.Run(fmt.Sprintf("tail-chain/n=%d", n), func(b *testing.B) {
			s := holdChainSim(n)
			holdSteps(s, 2*n)
			b.ReportAllocs()
			b.ResetTimer()
			holdSteps(s, b.N)
		})
	}
}

// TestHoldSteadyStateAllocationFree pins the ladder's allocation
// contract: once the arena and tier storage have grown to the
// workload's high-water mark (rung growth included), steady-state
// scheduling performs zero heap allocations — matching the warm heap.
func TestHoldSteadyStateAllocationFree(t *testing.T) {
	for _, kind := range holdKinds {
		t.Run(kind.name, func(t *testing.T) {
			q, seq := holdQueue(kind.new(), 10000)
			holdOps(q, &seq, 30000) // grow every tier to high water
			avg := testing.AllocsPerRun(50, func() {
				holdOps(q, &seq, 200)
			})
			if avg != 0 {
				t.Errorf("%s calendar allocates %v per 200 warm hold ops, want 0", kind.name, avg)
			}
		})
	}
	t.Run("fixed-delay", func(t *testing.T) {
		s := holdSim(10000)
		holdSteps(s, 30000)
		if avg := testing.AllocsPerRun(50, func() { holdSteps(s, 200) }); avg != 0 {
			t.Errorf("fixed-delay hold allocates %v per 200 warm ops, want 0", avg)
		}
	})
	t.Run("tail-chain", func(t *testing.T) {
		s := holdChainSim(10000)
		holdSteps(s, 30000)
		if avg := testing.AllocsPerRun(50, func() { holdSteps(s, 200) }); avg != 0 {
			t.Errorf("tail-chain hold allocates %v per 200 warm ops, want 0", avg)
		}
	})
}
