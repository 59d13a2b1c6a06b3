package sim

import (
	"math"
	"slices"
)

// ladderQueue is a ladder queue (multi-tier calendar queue) over
// (due, seq): the general-purpose half of the simulator's calendar.
// The calendar (calendar.go) sends the model's constant-delay pushes
// and its drain-tail chains to its FIFO lanes; what reaches the ladder
// is the residual — records whose delay varies, such as the
// workloads' own closures and fault timers — plus any lane push that
// would have broken its lane's order. For the tail lane that is about
// half the tail records: a worm's first tail record is pushed far
// ahead, and the chained records pushed one flit time ahead behind it
// spill. A residual record may carry a seq older than records already
// queued (AtCallSeq), so every tier orders by (due, seq), never by
// push order alone. The ladder also owns the arena every record, lane or
// ladder, lives in.
//
// Events live in one of three tiers:
//
//   - top: an unsorted FIFO for events beyond topStart, the
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
// pending, as for a heap's backing array), and freed slots are reused
// LIFO so the hot working set stays cache-resident.
//
// Sorting is deferred until a bucket becomes the working window, and
// is skipped when the bucket drains already in (due, seq) order, as a
// bucket holding one instant usually does: seq is assigned in push
// order except for AtCallSeq's reserved seqs.
//
// Execution order is bit-for-bit that of a binary heap over (due,
// seq) — the reference oracle the tests drain it against: ties are
// broken by seq, and bucket routing uses a monotone time→bucket
// map per rung, so floating-point rounding at a bucket boundary can
// never reorder two events — a monotone map keeps earlier-due events
// in earlier-or-equal buckets, and equal dues always share a bucket.
type ladderQueue struct {
	n int // pending records in the ladder's tiers (lane records are not counted)

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

	// top collects events due after topStart in push order. Events
	// due at topStart itself are routed below: the rungs or bottom
	// may already hold that instant, and a reserved-seq push there
	// must sort before their larger seqs, not queue behind them.
	top      bucketList
	topLen   int
	topStart Time
}

// Tuning constants, sized for the study workloads: peak pending is on
// the order of 10³ events (so rungs stay shallow) and bottom batches
// average a few dozen events. Buckets per rung is deliberately small —
// every bucket slot that warms up is per-simulator state. With the
// lanes in front, the residual's out-of-order inserts mostly land in
// a bottom of 32–255 live records; spilling it at 32 or 64 instead of
// 512 trades those memmoves for as much refill sorting (saturation
// benchmark, no measurable difference), so the budget stays.
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

// before reports whether the slot's record sorts before (due, seq).
func (nd *arenaSlot) before(due Time, seq uint64) bool {
	return nd.due < due || nd.due == due && nd.seq < seq
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

// reset empties the queue but keeps its arena, bottom and rungs.
// Popped slots hold no action record; discarded pending ones do.
func (q *ladderQueue) reset() {
	if q.n > 0 {
		clear(q.nodes)
	}
	nodes, bottom, rungs := q.nodes[:0], q.bottom[:0], q.rungs
	*q = *newLadderQueue()
	q.nodes, q.bottom, q.rungs = nodes, bottom, rungs
}

// alloc claims an arena slot for the record (due, seq, fn, arg) and
// returns its index. The record travels as separate arguments, not as
// an event value: the slot is then written straight from registers,
// without a copy through the stack.
func (q *ladderQueue) alloc(due Time, seq uint64, fn Func, arg any) int32 {
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
	// Field by field: a composite literal is built on the stack and
	// copied in wide moves that stall on store forwarding.
	nd := &q.nodes[i]
	nd.due, nd.seq, nd.next, nd.fn, nd.arg = due, seq, nilIdx, fn, arg
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

func (q *ladderQueue) push(e event) { q.insert(e.due, e.seq, e.fn, e.arg) }

// insert is push with the record passed field by field (see alloc).
func (q *ladderQueue) insert(due Time, seq uint64, fn Func, arg any) {
	q.n++
	i := q.alloc(due, seq, fn, arg)
	if due > q.topStart {
		q.link(&q.top, i)
		q.topLen++
		return
	}
	q.route(i, due)
}

// route places slot i (due at or before topStart) into the outermost rung
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
		return
	}
	nd := &q.nodes[i]
	q.pushBottom(itemNode{due: nd.due, seq: nd.seq, ref: i})
}

// pushBottom inserts into the sorted working window. Whenever the new
// item sorts after the current last element by (due, seq) — as a
// fresh seq does at or past the last due — a plain append keeps
// bottom sorted: the O(1) fast path same-instant bursts and in-order
// arrivals take.
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
	if compareItems(it, q.bottom[len(q.bottom)-1]) > 0 {
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
	// First live index that sorts after the item by (due, seq).
	lo, hi := q.botIdx, len(q.bottom)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if compareItems(q.bottom[mid], it) > 0 {
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

// drainToBottom empties the FIFO into bottom in link order,
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
	i := q.bottom[q.botIdx].ref
	q.botIdx++
	q.n--
	return q.take(i)
}

// take returns the record in arena slot i and frees the slot. The
// caller has already unlinked it from its tier.
func (q *ladderQueue) take(i int32) event {
	nd := &q.nodes[i]
	e := event{due: nd.due, seq: nd.seq, fn: nd.fn, arg: nd.arg}
	nd.fn, nd.arg = nil, nil // release the record's arg reference
	nd.next = q.free
	q.free = i
	return e
}

// popWavefront appends to dst the front run of events that share the
// earliest due time and removes them from the queue, in one sweep of
// the bottom window, in (due, seq) order — exactly the order repeated
// pop calls would yield — and as copies, never views into queue
// storage; dst is caller-owned scratch. The refill check and cursor
// advance are done once per run instead of once per event.
//
// The run is the bottom window's; should the instant continue past
// it, a later call returns the rest, so a caller merging other sources
// at T (the calendar's lanes) keeps taking runs while the head is
// still due at T.
func (q *ladderQueue) popWavefront(dst []event) []event {
	if q.n == 0 {
		panic("sim: pop from empty calendar")
	}
	if q.botIdx == len(q.bottom) {
		q.refill()
	}
	return q.takeRun(dst, q.bottom[q.botIdx].due, math.MaxUint64)
}

// takeRun appends the bottom window's front events due at t with seq
// below limit and removes them. Caller guarantees bottom is not
// exhausted.
func (q *ladderQueue) takeRun(dst []event, t Time, limit uint64) []event {
	k := q.botIdx
	for ; k < len(q.bottom); k++ {
		it := q.bottom[k]
		if it.due != t || it.seq >= limit {
			break
		}
		dst = append(dst, q.take(it.ref))
	}
	q.n -= k - q.botIdx
	q.botIdx = k
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
