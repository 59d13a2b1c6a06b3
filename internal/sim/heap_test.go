package sim

import "math"

// eventQueue is a binary min-heap ordered by (due, seq): the reference
// oracle the ladder calendar and the simulator's batched drain loop
// are checked against. It is the simplest correct calendar — every
// differential in this package requires the ladder to drain any
// schedule in exactly its order.
type eventQueue struct {
	items []event
}

func (q *eventQueue) Len() int { return len(q.items) }

// less reports whether item i fires before item j: earlier due
// first, ties broken by scheduling order.
func (q *eventQueue) less(i, j int) bool {
	a, b := &q.items[i], &q.items[j]
	if a.due != b.due {
		return a.due < b.due
	}
	return a.seq < b.seq
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

// heapSim is the reference drain loop: Step's semantics on the heap
// oracle — pop one record, set the clock, run it — with closure
// records so a workload can drive it and a Simulator alike.
type heapSim struct {
	q       eventQueue
	now     Time
	seq     uint64
	fired   uint64
	stopped bool
}

func (h *heapSim) Now() Time { return h.now }

func (h *heapSim) After(d Time, f func()) {
	h.q.push(event{due: h.now + d, seq: h.seq, arg: f})
	h.seq++
}

func (h *heapSim) At(t Time, f func()) {
	h.q.push(event{due: t, seq: h.seq, arg: f})
	h.seq++
}

func (h *heapSim) Reserve(n int) uint64 {
	first := h.seq
	h.seq += uint64(n)
	return first
}

func (h *heapSim) AtSeq(t Time, seq uint64, f func()) {
	h.q.push(event{due: t, seq: seq, arg: f})
}

func (h *heapSim) Stop() { h.stopped = true }

func (h *heapSim) run() { h.runUntil(math.Inf(1)) }

// runUntil is RunUntil's contract on the oracle: run every record due
// at or before horizon, then move the clock to horizon unless the
// calendar emptied or the run was stopped.
func (h *heapSim) runUntil(horizon Time) error {
	for !h.stopped && h.q.Len() > 0 && h.q.peek().due <= horizon {
		e := h.q.pop()
		h.now = e.due
		h.fired++
		e.arg.(func())()
	}
	if h.q.Len() == 0 {
		return ErrStalled
	}
	if !h.stopped {
		h.now = horizon
	}
	return nil
}
