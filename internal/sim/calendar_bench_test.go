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

// BenchmarkHold measures steady-state push+pop cost per event for the
// heap and ladder calendars at the paper workloads' pending sizes
// (10² is an uncontended broadcast, 10³–10⁴ the saturation studies)
// plus 10⁵ as the scaling stress the heap's O(log n) sift feels most.
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
}
