package sim

import (
	"math"
	"slices"
)

// ladderQueue is a ladder queue (multi-tier calendar queue): the
// default event calendar since PR 4, replacing the binary heap's
// O(log n) sift with amortized-O(1) scheduling.
//
// Events live in one of three tiers:
//
//   - top: an unsorted FIFO for events at or beyond topStart, the
//     far-future boundary.
//   - rungs: a stack of bucketed time windows. rungs[0] is the
//     coarsest; each finer rung subdivides one over-full span of the
//     rung above it. Pushing picks a bucket by time — O(1), no sift.
//   - bottom: the sorted working window events pop from, consumed
//     front to back with a cursor.
//
// The layout is built around Go's write barriers: an event's action
// record (fn, arg) — the only pointer-carrying part — is written once
// into its arena slot at push and read once at pop. Everything the
// tiers move around is either an int32 link or a pointer-free
// itemNode (due, seq, ref), so tier transfers, sorts and memmoves
// never trigger a barrier and the garbage collector never scans
// rungs or bottom. Top and bucket membership is link surgery through
// the arena; no event data is copied when a tier subdivides. The
// arena is the queue's only growing allocation (high-water = peak
// pending, exactly like the heap's backing array), and freed slots
// are reused LIFO so the hot working set stays cache-resident — a
// simulator is created per study, so per-instance warm-up cost
// matters as much as steady state.
//
// Sorting is deferred until a bucket becomes the working window, and
// is skipped when the bucket drains already in (due, seq) order —
// which it does for the workload's same-instant bursts: wormhole hop
// timing schedules whole wavefronts of events at identical
// now+hopDelay instants, and because seq is assigned in push order, a
// bucket holding one instant is born sorted. The heap paid a full
// O(log n) sift for every one of those events; the ladder absorbs the
// burst with O(1) appends and one linear drain.
//
// Execution order is bit-for-bit identical to the heap: ties are
// still broken by seq, and bucket routing uses a monotone time→bucket
// map per rung, so floating-point rounding at a bucket boundary can
// never reorder two events — a monotone map keeps earlier-due events
// in earlier-or-equal buckets, and equal dues always share a bucket.
type ladderQueue struct {
	n int // total pending events across all tiers

	// nodes is the arena: slot i holds an event's scalar ordering
	// data, FIFO link, and action record in one 48-byte entry, so a
	// push touches one cache line. free heads the reuse list threaded
	// through next (nilIdx-terminated); slots are freed at pop.
	nodes []arenaSlot
	free  int32

	// bottom is sorted ascending by (due, seq); botIdx is the
	// consumption cursor. Bottom items are scalar copies whose ref
	// points back at the arena slot.
	bottom []itemNode
	botIdx int

	// rungs[:active] is the rung stack, coarsest first. Entries past
	// active are drained rungs kept for reuse.
	rungs  []*rung
	active int

	// top collects events due at or after topStart in push (seq)
	// order.
	top      bucketList
	topLen   int
	topStart Time

	// Same-instant placement cache: the workload pushes long runs of
	// events at one instant (a broadcast wavefront all scheduling
	// now+hopDelay), and equal dues always map to the same bucket, so
	// after the first of a run the rung scan and its divisions are
	// skipped. gen invalidates the cache whenever the rung stack
	// changes shape (spawn, drain, top conversion); a consumed bucket
	// is caught by the cur check on use.
	lastDue  Time
	lastRung *rung
	lastBkt  int32
	gen      uint32
	lastGen  uint32
}

// Tuning constants, sized for the study workloads: peak pending is on
// the order of 10³ events (so rungs stay shallow) and bottom batches
// average a few dozen events. Buckets per rung is deliberately small —
// every bucket slot that warms up is per-simulator state, and
// simulators are created per study.
const (
	ladderBuckets   = 16  // buckets per rung
	ladderThreshold = 96  // bucket size at or below which it is sorted into bottom
	ladderMaxRungs  = 16  // rung-stack depth bound; beyond it buckets sort wholesale
	ladderBottomMax = 512 // live bottom size that spills into a fresh rung

	nilIdx = -1 // list terminator for next/head/tail indices
)

// arenaSlot is one arena entry: the scalar ordering key and FIFO
// link first (written and rewritten barrier-free), then the
// pointer-carrying action record (written once at push, cleared at
// pop).
type arenaSlot struct {
	due  Time
	seq  uint64
	next int32
	_    int32 // padding; keeps fn pointer-aligned
	fn   Func
	arg  any
}

// itemNode is the element type of bottom: the ordering key plus the
// arena slot (ref) of the full event. No pointers, so bottom copies,
// sorts and memmoves never trigger a write barrier.
type itemNode struct {
	due  Time
	seq  uint64
	ref  int32
	next int32 // unused in bottom; kept for layout parity
}

// bucketList is a FIFO of arena indices; head == nilIdx means empty.
type bucketList struct {
	head, tail int32
}

// rung is one bucketed time window: bucket i spans
// [start+width·i, start+width·(i+1)), except the last bucket, which
// also absorbs any later stragglers (the clamp is monotone, so order
// is safe). cur is the first unconsumed bucket. The struct carries no
// pointers: bucket contents are links through the nodes arena.
type rung struct {
	start Time
	width Time
	cur   int
	count int
	bkt   [ladderBuckets]bucketList
	blen  [ladderBuckets]int32
}

func newLadderQueue() *ladderQueue {
	return &ladderQueue{
		free:     nilIdx,
		top:      bucketList{head: nilIdx, tail: nilIdx},
		topStart: math.Inf(-1),
	}
}

func (q *ladderQueue) Len() int { return q.n }

// alloc claims an arena slot for e and returns its index.
func (q *ladderQueue) alloc(e event) int32 {
	i := q.free
	if i >= 0 {
		q.free = q.nodes[i].next
	} else {
		// The arena links are int32 to halve the slot size; its
		// capacity is therefore 2^31-1 LIVE events. A million-node
		// broadcast keeps well under ten million in flight, so the
		// guard exists to turn a hypothetical silent index wrap into a
		// loud failure, not because any workload approaches it.
		if arenaFull(len(q.nodes)) {
			panic("sim: ladder event arena full (2^31-1 pending events)")
		}
		q.nodes = append(q.nodes, arenaSlot{})
		i = int32(len(q.nodes) - 1)
	}
	q.nodes[i] = arenaSlot{due: e.due, seq: e.seq, next: nilIdx, fn: e.fn, arg: e.arg}
	return i
}

// arenaFull reports whether an arena of n slots cannot grow: the next
// slot's index would not fit the int32 links.
func arenaFull(n int) bool { return n >= math.MaxInt32 }

// link appends arena slot i to the FIFO l.
func (q *ladderQueue) link(l *bucketList, i int32) {
	if l.head < 0 {
		l.head, l.tail = i, i
		return
	}
	q.nodes[l.tail].next = i
	l.tail = i
}

func (q *ladderQueue) push(e event) {
	q.n++
	i := q.alloc(e)
	if e.due >= q.topStart {
		q.link(&q.top, i)
		q.topLen++
		return
	}
	if e.due == q.lastDue && q.lastGen == q.gen {
		if r := q.lastRung; r != nil && int(q.lastBkt) >= r.cur {
			q.link(&r.bkt[q.lastBkt], i)
			r.blen[q.lastBkt]++
			r.count++
			return
		}
	}
	q.route(i, e.due)
}

// route places slot i (due before topStart) into the outermost rung
// whose unconsumed range covers it, or failing all rungs, into bottom.
func (q *ladderQueue) route(i int32, due Time) {
	for k := 0; k < q.active; k++ {
		r := q.rungs[k]
		f := (due - r.start) / r.width
		if f < 0 {
			continue // before this rung entirely (int() would truncate toward 0)
		}
		b := ladderBuckets - 1
		if f < float64(ladderBuckets-1) {
			b = int(f)
		}
		if b < r.cur {
			// The slot's bucket is already consumed (or, for the
			// clamped last bucket, the whole rung is positionally
			// exhausted): it belongs to a finer rung or the bottom,
			// both of which drain before the rest of this rung.
			continue
		}
		q.link(&r.bkt[b], i)
		r.blen[b]++
		r.count++
		q.lastDue, q.lastRung, q.lastBkt, q.lastGen = due, r, int32(b), q.gen
		return
	}
	nd := &q.nodes[i]
	q.pushBottom(itemNode{due: nd.due, seq: nd.seq, ref: i})
}

// pushBottom inserts into the sorted working window. The new item
// carries the largest seq yet issued, so whenever its due is at or
// past the current last element, a plain append keeps bottom sorted —
// the O(1) fast path same-instant bursts and in-order arrivals take.
func (q *ladderQueue) pushBottom(it itemNode) {
	if len(q.bottom) == q.botIdx {
		q.bottom = append(q.bottom[:0], it)
		q.botIdx = 0
		return
	}
	if len(q.bottom) == cap(q.bottom) && 2*q.botIdx >= len(q.bottom) {
		// A window fed in order while it drains never empties, so its
		// consumed prefix would grow the array without bound. Slide the
		// live span down instead of growing once at least half the
		// array is consumed: each slide frees that half, which keeps
		// the copying amortized O(1) per push.
		q.bottom = q.bottom[:copy(q.bottom, q.bottom[q.botIdx:])]
		q.botIdx = 0
	}
	if it.due >= q.bottom[len(q.bottom)-1].due {
		q.bottom = append(q.bottom, it)
		return
	}
	// Out of order. If bottom has grown past its budget, spill it into
	// a fresh rung so inserts stay amortized O(1); otherwise binary-
	// insert into the live span.
	if len(q.bottom)-q.botIdx >= ladderBottomMax && q.spillBottom() {
		q.nodes[it.ref].next = nilIdx // stale from its last list membership
		q.route(it.ref, it.due)
		return
	}
	// First live index whose due exceeds the item's. Pending seqs are
	// all smaller, so this is the (due, seq) upper bound.
	lo, hi := q.botIdx, len(q.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if q.bottom[mid].due > it.due {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	q.bottom = append(q.bottom, itemNode{})
	copy(q.bottom[lo+1:], q.bottom[lo:])
	q.bottom[lo] = it
}

// spillBottom converts the live span of an oversized bottom into a new
// innermost rung by relinking the items' arena slots (their nodes
// still hold due and seq from push). It reports whether the spill
// happened: a span of one instant (or at max rung depth) stays put.
func (q *ladderQueue) spillBottom() bool {
	live := q.bottom[q.botIdx:]
	minD, maxD := live[0].due, live[len(live)-1].due
	r := q.spawnRung(minD, maxD)
	if r == nil {
		return false
	}
	for k := range live {
		q.rungAdd(r, live[k].due, live[k].ref)
	}
	q.bottom = q.bottom[:0]
	q.botIdx = 0
	return true
}

// spawnRung pushes a fresh innermost rung covering [minD, maxD] onto
// the stack, or returns nil when the stack is full or the span is too
// narrow (or not finite) for bucket boundaries to make progress.
func (q *ladderQueue) spawnRung(minD, maxD Time) *rung {
	if q.active >= ladderMaxRungs || !(maxD > minD) {
		return nil
	}
	w := (maxD - minD) / ladderBuckets
	if !(w > 0) || math.IsInf(w, 1) || minD+w == minD {
		return nil
	}
	var r *rung
	if q.active < len(q.rungs) {
		r = q.rungs[q.active]
	} else {
		r = &rung{}
		q.rungs = append(q.rungs, r)
	}
	q.active++
	q.gen++
	r.start, r.width, r.cur, r.count = minD, w, 0, 0
	for i := range r.bkt {
		r.bkt[i] = bucketList{head: nilIdx, tail: nilIdx}
		r.blen[i] = 0
	}
	return r
}

// rungAdd links arena slot i into r's bucket for due.
func (q *ladderQueue) rungAdd(r *rung, due Time, i int32) {
	f := (due - r.start) / r.width
	b := ladderBuckets - 1
	if f < float64(ladderBuckets-1) {
		b = int(f)
	}
	q.nodes[i].next = nilIdx
	q.link(&r.bkt[b], i)
	r.blen[b]++
	r.count++
}

// listRange walks a FIFO for its minimum and maximum due.
func (q *ladderQueue) listRange(head int32) (minD, maxD Time) {
	minD = q.nodes[head].due
	maxD = minD
	for i := q.nodes[head].next; i >= 0; i = q.nodes[i].next {
		if d := q.nodes[i].due; d < minD {
			minD = d
		} else if d > maxD {
			maxD = d
		}
	}
	return minD, maxD
}

// drainToBottom empties the FIFO into bottom in link (seq) order,
// sorting only when the items are not already in (due, seq) order. A
// bucket holding one same-instant burst — or any run linked in
// nondecreasing due order — transfers without a sort.
func (q *ladderQueue) drainToBottom(head int32) {
	dst := q.bottom[:0]
	sorted := true
	for i := head; i >= 0; {
		nd := &q.nodes[i]
		if sorted && len(dst) > 0 {
			if last := &dst[len(dst)-1]; nd.due < last.due || (nd.due == last.due && nd.seq < last.seq) {
				sorted = false
			}
		}
		dst = append(dst, itemNode{due: nd.due, seq: nd.seq, ref: i})
		i = nd.next
	}
	q.bottom = dst
	q.botIdx = 0
	if !sorted {
		slices.SortFunc(q.bottom, compareItems)
	}
}

// compareItems orders by (due, seq) — a total order, seq being
// unique, so the sort is deterministic without needing stability.
func compareItems(a, b itemNode) int {
	switch {
	case a.due < b.due:
		return -1
	case a.due > b.due:
		return 1
	case a.seq < b.seq:
		return -1
	case a.seq > b.seq:
		return 1
	}
	return 0
}

// subdivide spreads the FIFO at head — an over-full bucket or the
// converted top — into a fresh finer rung by relinking its nodes. It
// reports false (list untouched) when the rung stack is full or the
// span [minD, maxD] is one instant or too narrow to split, in which
// case the caller sorts the list wholesale instead.
func (q *ladderQueue) subdivide(head int32, minD, maxD Time) bool {
	nr := q.spawnRung(minD, maxD)
	if nr == nil {
		return false
	}
	for i := head; i >= 0; {
		next := q.nodes[i].next
		q.rungAdd(nr, q.nodes[i].due, i)
		i = next
	}
	return true
}

// refill loads the next batch of events into the exhausted bottom:
// the next nonempty bucket of the innermost rung, recursively
// subdivided while it stays over the sort threshold, or — once every
// rung is drained — the accumulated top. Caller guarantees q.n > 0.
func (q *ladderQueue) refill() {
	for {
		if q.active > 0 {
			r := q.rungs[q.active-1]
			if r.count == 0 {
				q.active-- // drained; keep the rung allocated for reuse
				q.gen++
				continue
			}
			for r.bkt[r.cur].head < 0 {
				r.cur++
			}
			head := r.bkt[r.cur].head
			cnt := int(r.blen[r.cur])
			r.count -= cnt
			r.bkt[r.cur] = bucketList{head: nilIdx, tail: nilIdx}
			r.blen[r.cur] = 0
			r.cur++
			if cnt > ladderThreshold {
				minD, maxD := q.listRange(head)
				if q.subdivide(head, minD, maxD) {
					continue
				}
			}
			q.drainToBottom(head)
			return
		}
		// Every rung is drained: the earliest events now live in top.
		head := q.top.head
		cnt := q.topLen
		minD, maxD := q.listRange(head)
		q.topStart = maxD
		q.top = bucketList{head: nilIdx, tail: nilIdx}
		q.topLen = 0
		q.gen++
		if cnt > ladderThreshold && q.subdivide(head, minD, maxD) {
			continue
		}
		q.drainToBottom(head)
		return
	}
}

func (q *ladderQueue) pop() event {
	if q.n == 0 {
		panic("sim: pop from empty calendar")
	}
	if q.botIdx == len(q.bottom) {
		q.refill()
	}
	it := q.bottom[q.botIdx]
	q.botIdx++
	q.n--
	i := it.ref
	nd := &q.nodes[i]
	e := event{due: it.due, seq: it.seq, fn: nd.fn, arg: nd.arg}
	nd.fn, nd.arg = nil, nil // release the record's arg reference
	nd.next = q.free
	q.free = i
	return e
}

// popWavefront pops the front equal-due run under the bound in one
// sweep of the bottom window. This is where batching pays: the refill
// check, cursor advance and free-list bookkeeping are done once per
// run instead of once per event, and the run is read straight out of
// the already-sorted bottom span.
//
// The run never needs to look past bottom: equal dues always route to
// the same bucket and drain together, so when bottom's front holds
// due T every pending due-T event is already in bottom — any due-T
// event still in top was pushed after topStart rose past T and
// carries a larger seq, and events pushed during the caller's batch
// carry larger seqs still. If a run is ever split by an exhausted
// bottom, the next call simply returns the remainder; a wavefront is
// an optimization batch, not a semantic unit.
func (q *ladderQueue) popWavefront(dst []event, limDue Time, limSeq uint64) []event {
	if q.n == 0 {
		panic("sim: pop from empty calendar")
	}
	if q.botIdx == len(q.bottom) {
		q.refill()
	}
	due := q.bottom[q.botIdx].due
	if due > limDue || (due == limDue && q.bottom[q.botIdx].seq >= limSeq) {
		return dst
	}
	end := q.botIdx + 1
	if due == limDue {
		for end < len(q.bottom) && q.bottom[end].due == due && q.bottom[end].seq < limSeq {
			end++
		}
	} else {
		for end < len(q.bottom) && q.bottom[end].due == due {
			end++
		}
	}
	for k := q.botIdx; k < end; k++ {
		it := q.bottom[k]
		nd := &q.nodes[it.ref]
		dst = append(dst, event{due: it.due, seq: it.seq, fn: nd.fn, arg: nd.arg})
		nd.fn, nd.arg = nil, nil // release the record's arg reference
		nd.next = q.free
		q.free = it.ref
	}
	q.n -= end - q.botIdx
	q.botIdx = end
	return dst
}

func (q *ladderQueue) peek() event {
	if q.n == 0 {
		panic("sim: peek at empty calendar")
	}
	if q.botIdx == len(q.bottom) {
		q.refill()
	}
	it := q.bottom[q.botIdx]
	nd := &q.nodes[it.ref]
	return event{due: it.due, seq: it.seq, fn: nd.fn, arg: nd.arg}
}
