package sim

import "math"

// calendar is the simulator's event calendar: a priority queue over
// (due, seq) made of FIFO delay lanes in front of a ladder queue.
//
// The wormhole model schedules almost everything at one of a few fixed
// delays: a header hop, the startup latency, and "now" (a port request
// or a worm injected at the running instant). Records pushed with one
// fixed delay arrive in nondecreasing due — now never decreases and
// float addition is monotone — and seq is global and increasing, so a
// FIFO of them is already sorted by (due, seq). Each such class gets a
// lane: lane 0 takes AtCall(now, …), and lanes 1 and 2 are claimed by
// the first distinct AfterCall delays seen after New or Reset. The
// last lane, tailLane, takes AtCallSeq's records: chains pushed under
// reserved seqs, such as a worm's drain tail, whose links carry seqs
// older than the newest. A lane push is an O(1) link with no sort, no
// bucket routing and no memmove.
//
// A push joins its lane only if it sorts at or after the lane's tail
// by (due, seq); anything else goes to the ladder, as does every push
// of a delay no lane serves. That guard is the lanes' whole
// correctness argument, so which lane (or the ladder) a record lands
// in never changes the order records come out in — the heap oracle
// the tests drain against sees the same schedule whatever the
// placement.
//
// Lanes are bucketLists threaded through the ladder's arena: a lane
// record is an ordinary arena slot, so lanes add no storage, no write
// barriers and no warm-up of their own.
//
// Popping merges the lane heads with the ladder head by (due, seq).
// popWavefront takes every record due at the front instant from every
// source, re-reading a source's head after each run it takes, and
// k-way merges the sorted runs by seq: any lane, the tail lane
// included, may hold records at that instant with seqs below the
// other sources'.
type calendar struct {
	n     int // pending records, lanes and ladder together
	lq    ladderQueue
	lanes [laneCount]bucketList
	// delays[k] is the AfterCall delay lane k serves; lanes below
	// claimed are in use. Lane 0 serves zero delay from New on.
	delays  [tailLane]Time
	claimed int
}

const (
	laneCount = 4             // AtCall(now), the model's two fixed AfterCall delays, AtCallSeq
	tailLane  = laneCount - 1 // AtCallSeq's lane: chains under reserved seqs
	ladderSrc = laneCount     // source index of the ladder in the merge
	noLane    = -1            // push straight to the ladder
)

func newCalendar() *calendar {
	c := &calendar{lq: *newLadderQueue()}
	c.clearLanes()
	return c
}

func (c *calendar) clearLanes() {
	for k := range c.lanes {
		c.lanes[k] = bucketList{head: nilIdx, tail: nilIdx}
	}
	c.delays = [tailLane]Time{}
	c.claimed = 1
}

// reset empties the calendar but keeps the ladder's storage.
func (c *calendar) reset() {
	if c.n > c.lq.n {
		clear(c.lq.nodes) // lane records still hold their actions
	}
	c.lq.reset()
	c.clearLanes()
	c.n = 0
}

// laneFor returns the lane serving AfterCall(delay), claiming a free
// lane for a delay not seen before, or noLane once all are claimed.
func (c *calendar) laneFor(delay Time) int {
	if delay == 0 {
		return 0
	}
	for k := 1; k < c.claimed; k++ {
		if c.delays[k] == delay {
			return k
		}
	}
	if c.claimed == tailLane {
		return noLane
	}
	k := c.claimed
	c.delays[k] = delay
	c.claimed++
	return k
}

// push schedules the record (due, seq, fn, arg) on lane k (noLane:
// the ladder). The record joins the lane only if that keeps the lane
// sorted by (due, seq).
func (c *calendar) push(k int, due Time, seq uint64, fn Func, arg any) {
	c.n++
	if k != noLane {
		l := &c.lanes[k]
		if l.head < 0 || c.lq.nodes[l.tail].before(due, seq) {
			c.lq.link(l, c.lq.alloc(due, seq, fn, arg))
			return
		}
	}
	c.lq.insert(due, seq, fn, arg)
}

// head returns the (due, seq) of source k's first record (a lane, or
// ladderSrc), and false when the source is empty.
func (c *calendar) head(k int) (Time, uint64, bool) {
	if k == ladderSrc {
		q := &c.lq
		if q.n == 0 {
			return 0, 0, false
		}
		if q.botIdx == len(q.bottom) {
			q.refill()
		}
		it := &q.bottom[q.botIdx]
		return it.due, it.seq, true
	}
	i := c.lanes[k].head
	if i < 0 {
		return 0, 0, false
	}
	nd := &c.lq.nodes[i]
	return nd.due, nd.seq, true
}

// first returns the source holding the earliest record by (due, seq)
// and that record's due. Caller guarantees c.n > 0.
func (c *calendar) first() (int, Time) {
	best, due, seq := noLane, Time(0), uint64(0)
	for k := 0; k <= ladderSrc; k++ {
		d, s, ok := c.head(k)
		if ok && (best == noLane || d < due || d == due && s < seq) {
			best, due, seq = k, d, s
		}
	}
	return best, due
}

func (c *calendar) pop() event {
	if c.n == 0 {
		panic("sim: pop from empty calendar")
	}
	k, _ := c.first()
	c.n--
	if k == ladderSrc {
		return c.lq.pop()
	}
	l := &c.lanes[k]
	i := l.head
	nd := &c.lq.nodes[i]
	l.head = nd.next
	return c.lq.take(i)
}

// popWavefront appends to dst every record due at the earliest
// pending instant, in seq order, and removes them from the calendar —
// exactly what repeated pop calls would yield while the front due
// stays the same. Each round finds the source whose head has the
// smallest seq at that instant and takes its run up to the next
// source's head seq, so a batch drawn from one source (the common
// case) is one round. Only the source just taken from has a new head
// to read; re-reading the ladder's refills it, which takes every
// ladder run at the instant.
func (c *calendar) popWavefront(dst []event) []event {
	if c.n == 0 {
		panic("sim: pop from empty calendar")
	}
	start := len(dst)
	var (
		due [ladderSrc + 1]Time
		seq [ladderSrc + 1]uint64
		ok  [ladderSrc + 1]bool
	)
	t, found := Time(0), false
	for k := range due {
		due[k], seq[k], ok[k] = c.head(k)
		if ok[k] && (!found || due[k] < t) {
			t, found = due[k], true
		}
	}
	for {
		best, limit := noLane, uint64(math.MaxUint64)
		for k := range due {
			switch {
			case !ok[k] || due[k] != t:
			case best == noLane:
				best = k
			case seq[k] < seq[best]:
				best, limit = k, seq[best]
			default:
				limit = min(limit, seq[k])
			}
		}
		if best == noLane {
			break
		}
		if best == ladderSrc {
			dst = c.lq.takeRun(dst, t, limit)
		} else {
			dst = c.takeLaneRun(dst, best, t, limit)
		}
		due[best], seq[best], ok[best] = c.head(best)
	}
	c.n -= len(dst) - start
	return dst
}

// takeLaneRun appends lane k's front records due at t with seq below
// limit.
func (c *calendar) takeLaneRun(dst []event, k int, t Time, limit uint64) []event {
	l := &c.lanes[k]
	for i := l.head; i >= 0; {
		nd := &c.lq.nodes[i]
		if nd.due != t || nd.seq >= limit {
			break
		}
		l.head = nd.next
		dst = append(dst, c.lq.take(i))
		i = l.head
	}
	return dst
}
