// Package sim provides a deterministic discrete-event simulation kernel.
//
// It plays the role CSIM-18/MultiSim played in the original study: a
// virtual clock, an event calendar, and seeded random-number streams.
// Events scheduled for the same instant fire in scheduling order, so a
// simulation run is reproducible bit-for-bit given the same seed.
package sim

// Time is simulated time. The broadcast study measures everything in
// microseconds (Ts = 1.5 µs, β = 0.003 µs/flit), so all packages in
// this module treat one Time unit as one microsecond.
type Time = float64

// Action is the body of a scheduled event. It runs with the simulator
// clock set to the event's due time.
type Action func()

// Func is an event body that receives its state explicitly. Hot paths
// schedule a prebuilt (Func, arg) record instead of closing over their
// state: a Func plus an arg already in hand costs no allocation per
// event, where a closure costs one. arg is typically a pointer (the
// worm, the injector) so boxing it into the interface is free too.
// s is the simulator executing the record: the body reads the clock
// and schedules follow-up records through it.
type Func func(s *Simulator, arg any)

// event is a calendar entry: an action record (fn, arg) due at a
// time. seq breaks ties between events due at the same instant so
// execution order is deterministic. Entries are stored by value in
// the calendar's backing array, which is reused as the heap grows and
// shrinks — the calendar itself allocates only on capacity growth.
type event struct {
	due Time
	seq uint64
	fn  Func
	arg any
}

// calendar is the event-calendar contract the simulator runs on: a
// priority queue over (due, seq). Two implementations exist — the
// default ladderQueue and the legacy eventQueue binary heap, kept as a
// debugging reference — and they must drain any schedule in the same
// order (pinned by the differential tests in ladder_test.go).
//
// popWavefront appends to dst the maximal front run of events that
// share the earliest due time, bounded exclusively by (limDue,
// limSeq), and removes them from the calendar. The run is returned in
// (due, seq) order — exactly the order repeated pop calls would yield
// — so executing it front to back is indistinguishable from popping
// one event at a time. An empty append means the front event is at or
// past the bound. dst is caller-owned scratch: the returned events
// are copies, never views into calendar storage. Pass limDue =
// +Inf, limSeq = MaxUint64 for an unbounded wavefront.
type calendar interface {
	Len() int
	push(event)
	pop() event
	peek() event
	popWavefront(dst []event, limDue Time, limSeq uint64) []event
}

// eventBefore reports whether a fires before b: earlier due first,
// ties broken by scheduling order.
func eventBefore(a, b *event) bool {
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
}

// eventQueue is a binary min-heap ordered by (due, seq).
type eventQueue struct {
	items []event
}

func (q *eventQueue) Len() int { return len(q.items) }

func (q *eventQueue) less(i, j int) bool {
	return eventBefore(&q.items[i], &q.items[j])
}

func (q *eventQueue) push(e event) {
	q.items = append(q.items, e)
	i := len(q.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			break
		}
		q.items[i], q.items[parent] = q.items[parent], q.items[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	if len(q.items) == 0 {
		panic("sim: pop from empty calendar")
	}
	top := q.items[0]
	last := len(q.items) - 1
	q.items[0] = q.items[last]
	q.items[last] = event{} // release the record's arg reference
	q.items = q.items[:last]
	q.siftDown(0)
	return top
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.items)
	for {
		left, right := 2*i+1, 2*i+2
		smallest := i
		if left < n && q.less(left, smallest) {
			smallest = left
		}
		if right < n && q.less(right, smallest) {
			smallest = right
		}
		if smallest == i {
			return
		}
		q.items[i], q.items[smallest] = q.items[smallest], q.items[i]
		i = smallest
	}
}

// peek returns the earliest event without removing it.
func (q *eventQueue) peek() event {
	if len(q.items) == 0 {
		panic("sim: peek at empty calendar")
	}
	return q.items[0]
}

// popWavefront pops the front equal-due run under the bound. On the
// heap this is a loop of ordinary O(log n) pops — the heap gains no
// speed from batching, it exists so wavefront execution produces
// byte-identical output on either calendar.
func (q *eventQueue) popWavefront(dst []event, limDue Time, limSeq uint64) []event {
	if len(q.items) == 0 {
		panic("sim: pop from empty calendar")
	}
	due := q.items[0].due
	if due > limDue || (due == limDue && q.items[0].seq >= limSeq) {
		return dst
	}
	for len(q.items) > 0 {
		f := &q.items[0]
		if f.due != due || (due == limDue && f.seq >= limSeq) {
			break
		}
		dst = append(dst, q.pop())
	}
	return dst
}
