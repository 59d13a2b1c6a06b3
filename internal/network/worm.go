package network

import (
	"fmt"
	"math/bits"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// worm is the runtime state of one in-flight transfer.
//
// A worm belongs to the network that sent it: a drained worm returns
// to its network's free list (putWorm) and moves with the network
// through Acquire and Release. Its per-hop slices start on the inline
// arrays heldBuf and deliverBuf, which cover most short paths; a
// longer path spills into power-of-two buffers from the network's
// per-size free lists (spillLists), and putWorm hands them back, so a
// short worm never keeps a long worm's capacity. All of a worm's
// calendar entries are (Func, worm) records. Its drain tail is one
// tailEvent record per distinct tail instant (see complete), chained:
// only the next one is pending at a time, each pushing its successor
// under a seq complete reserved. Each consumes the per-worm schedule
// through the rel/del cursors, recomputing the instants from tcomp.
type worm struct {
	net *Network
	t   *Transfer

	cur     topology.NodeID
	dst     topology.NodeID    // the next waypoint to reach, t.Waypoints[len(deliver)]
	path    []topology.NodeID  // header's node sequence; nil unless t.OnPath is set (see Send)
	held    []hold             // acquired lanes in order, one per hop, each with its grant time
	deliver []int32            // hop index (1-based node position) per waypoint reached so far
	relCur  int                // next entry of held to release (drain tail)
	delCur  int                // next entry of deliver to fire (drain tail)
	waiting topology.ChannelID // channel lane whose queue the worm sits in, or -1
	qnext   *worm              // next worm of the lane or port wait queue it sits in (see qpush)
	tcomp   sim.Time           // completion time: the header reached the last waypoint
	tailSeq uint64             // first of the hops seqs reserved for the drain tail

	// parkToken is non-nil while the worm is parked awaiting a fault
	// recovery; it guards the park-timeout calendar record (see
	// health.go).
	parkToken *parkToken

	// vcPol is the worm's virtual-channel class policy, resolved once
	// at Send from its selector — and only on networks with more than
	// one VC, so the single-VC hot path never pays the assertion.
	vcPol routing.VCPolicy

	// chApp is the worm's routing function (the transfer's, or the
	// network default) as the routing walk advance runs, resolved once
	// at Send; nil for a transfer's selector that offers only
	// NextHops, whose candidates advance resolves to channels itself.
	chApp routing.ChannelAppender

	// activePrev/activeNext thread the network's in-flight list: an
	// intrusive doubly-linked list replaces the old map[*worm]bool,
	// which paid a pointer hash on every send and every retirement.
	activePrev, activeNext *worm

	// The inline per-hop store held and deliver start on (putWorm).
	heldBuf    [wormInline]hold
	deliverBuf [wormInline]int32
}

// hold is one lane a worm acquired and the instant it was granted,
// from which release adds the lane's busy interval.
type hold struct {
	lane  topology.ChannelID // channel·vcs + vc
	grant sim.Time
}

func (w *worm) describe() string {
	return fmt.Sprintf("worm %q src=%d cur=%d wp=%d/%d hops=%d waiting=%d",
		w.t.Tag, w.t.Source, w.cur, len(w.deliver), len(w.t.Waypoints), len(w.held), w.waiting)
}

// wormInline is the inline capacity of a worm's held and deliver
// slices. At 16×16×16 from source 80 it covers 93% of RD's and 98% of
// EDN's worms; the coded-path worms of DB and AB, up to 255 hops,
// spill. The path is not kept: only a transfer with OnPath, which is
// rare, records one, and putWorm drops it.
const wormInline = 4

// getWorm takes a worm off the network's free list, or builds one on
// its inline store when the list is empty.
func (n *Network) getWorm() *worm {
	if k := len(n.freeWorms); k > 0 {
		w := n.freeWorms[k-1]
		n.freeWorms = n.freeWorms[:k-1]
		return w
	}
	w := &worm{net: n, waiting: topology.InvalidChannel}
	w.held, w.deliver = w.heldBuf[:0], w.deliverBuf[:0]
	return w
}

// putWorm resets w (dropping its Transfer reference and path, handing
// its spill buffers back and pointing it at its inline store again)
// and returns it to the network's free list. Only finishWorm and
// dropWorm may call it: by then every calendar record referencing w
// has fired — park timeouts reference a token, not the worm, exactly
// so a drop cannot race a stale timeout.
func (n *Network) putWorm(w *worm) {
	n.heldSpill.put(w.held)
	n.deliverSpill.put(w.deliver)
	w.t = nil
	w.cur, w.dst = 0, 0
	w.held, w.deliver = w.heldBuf[:0], w.deliverBuf[:0]
	w.path = nil
	w.relCur, w.delCur = 0, 0
	w.waiting = topology.InvalidChannel
	w.tcomp, w.tailSeq = 0, 0
	w.parkToken = nil
	w.vcPol = nil
	w.chApp = nil
	w.activePrev, w.activeNext = nil, nil
	n.freeWorms = append(n.freeWorms, w)
}

// spillLists are a network's free spill buffers for one per-hop slice
// type: entry k holds those of capacity wormInline<<(k+1). The buffers
// hold no pointers, so a free one keeps nothing else alive.
type spillLists[T hold | int32] [][][]T

// grow returns a buffer of twice b's capacity holding b's elements,
// taken from the free lists when one is there, and hands b back.
func (s *spillLists[T]) grow(b []T) []T {
	k := spillClass(2 * cap(b))
	for len(*s) <= k {
		*s = append(*s, nil)
	}
	var nb []T
	if free := (*s)[k]; len(free) > 0 {
		nb = free[len(free)-1]
		(*s)[k] = free[:len(free)-1]
	} else {
		nb = make([]T, 0, 2*cap(b))
	}
	nb = append(nb, b...)
	s.put(b)
	return nb
}

// put hands a spilled buffer back to its free list; a worm's inline
// array is not a spill buffer and stays with the worm.
func (s *spillLists[T]) put(b []T) {
	if cap(b) > wormInline {
		k := spillClass(cap(b))
		(*s)[k] = append((*s)[k], b[:0])
	}
}

// spillClass is the free-list index of spill capacity c.
func spillClass(c int) int { return bits.Len(uint(c/wormInline)) - 2 }

// Prebuilt event bodies: the network schedules (func, worm) records,
// never closures, so the per-hop scheduling path does not allocate.
func requestPortEvent(_ *sim.Simulator, arg any) { w := arg.(*worm); w.net.requestPort(w) }
func advanceEvent(_ *sim.Simulator, arg any)     { w := arg.(*worm); w.net.advance(w) }

// finishWorm retires the worm when its tail fully drains. It runs at
// tdone as the last action of the worm's tail, so recycling here
// cannot race an unfired release or delivery.
func finishWorm(w *worm) {
	n := w.net
	n.activeRemove(w)
	n.finished++
	if w.t.OnDone != nil {
		w.t.OnDone(n.sim.Now())
	}
	if w.t.OnPath != nil {
		w.t.OnPath(w.path, true)
	}
	n.putWorm(w)
}

// tailDone is the instant a worm completed at tcomp finishes
// draining its body of length flits. tailDone and drainAt are the only
// tail-time expressions, so the records complete schedules and the
// actions tailEvent matches against them agree bit for bit.
func tailDone(tcomp sim.Time, length int, beta float64) sim.Time {
	return tcomp + float64(length)*beta
}

// drainAt is the instant the tail leaves the channel k hops before the
// worm's last one, tdone - k·β, clamped to the completion time tcomp:
// a path longer than the body has its first channels free at once.
func drainAt(tdone, tcomp sim.Time, k int, beta float64) sim.Time {
	at := tdone - float64(k)*beta
	if at < tcomp {
		at = tcomp
	}
	return at
}

// tailEvent runs every drain-tail action of a worm due at the current
// instant, in the order the per-action records would have fired:
// channel releases in channel order, then waypoint deliveries in
// waypoint order, then — in the worm's first tail record — the port
// release, then — once the last channel is free — retirement. It
// reports the actions beyond the first to the simulator, so Fired
// still counts one model event per action. A Stop raised by an action
// abandons the rest, as a Stop mid-wavefront leaves the unexecuted
// records unrun.
//
// Before any action it pushes the record of the worm's next tail
// instant, if any, under the reserved seq of that instant's first
// channel: a Stop then leaves the draining worm exactly one pending
// record, and retirement, in the last record, pushes nothing.
func tailEvent(s *sim.Simulator, arg any) {
	w := arg.(*worm)
	n := w.net
	now := s.Now()
	hops := len(w.held)
	tdone := tailDone(w.tcomp, w.t.Length, n.beta)
	first := w.relCur == 0
	last := w.relCur // this instant releases held[relCur:last]
	for last < hops {
		if at := drainAt(tdone, w.tcomp, hops-1-last, n.beta); at != now {
			s.AtCallSeq(at, w.tailSeq+uint64(last), tailEvent, w)
			break
		}
		last++
	}
	ran := 0
	for w.relCur < last && !s.Stopped() {
		i := w.relCur
		w.relCur++
		n.release(w.held[i])
		ran++
	}
	if w.t.OnDeliver != nil {
		for w.delCur < len(w.deliver) && !s.Stopped() && drainAt(tdone, w.tcomp, hops-int(w.deliver[w.delCur]), n.beta) == now {
			i := w.delCur
			w.delCur++
			w.t.OnDeliver(w.t.Waypoints[i], now)
			ran++
		}
	}
	if first && !s.Stopped() {
		n.releasePort(w.t.Source)
		ran++
	}
	if w.relCur == hops && !s.Stopped() {
		finishWorm(w)
		ran++
	}
	s.AddFired(ran - 1)
}

// Send validates t and schedules its injection at absolute time start.
// The worm first waits for an injection port at the source (FIFO),
// then pays the startup latency Ts, then walks its coded path.
func (n *Network) Send(start sim.Time, t *Transfer) error {
	if t.Length <= 0 {
		return fmt.Errorf("network: transfer %q has length %d", t.Tag, t.Length)
	}
	if len(t.Waypoints) == 0 {
		return fmt.Errorf("network: transfer %q has no waypoints", t.Tag)
	}
	prev := t.Source
	for i, wp := range t.Waypoints {
		if wp == prev {
			return fmt.Errorf("network: transfer %q repeats node %d at waypoint %d", t.Tag, wp, i)
		}
		if int(wp) < 0 || int(wp) >= n.topo.Nodes() {
			return fmt.Errorf("network: transfer %q waypoint %d out of range", t.Tag, wp)
		}
		prev = wp
	}
	if t.Selector == nil && n.dor == nil {
		return fmt.Errorf("network: transfer %q needs a selector on topology %s", t.Tag, n.topo.Name())
	}
	w := n.getWorm()
	w.t = t
	w.cur = t.Source
	w.dst = t.Waypoints[0]
	if t.OnPath != nil {
		// A non-nil path is acquire's signal to record the header's
		// nodes; a recycled worm's path is nil (putWorm).
		w.path = append(w.path, t.Source)
	}
	sel := t.Selector
	if sel == nil {
		sel = n.dor
	}
	w.chApp, _ = sel.(routing.ChannelAppender)
	if n.vcs > 1 {
		w.vcPol, _ = sel.(routing.VCPolicy)
	}
	n.injected++
	n.activeAdd(w)
	n.sim.AtCall(start, requestPortEvent, w)
	return nil
}

// MustSend is Send for statically valid transfers; it panics on error.
func (n *Network) MustSend(start sim.Time, t *Transfer) {
	if err := n.Send(start, t); err != nil {
		panic(err)
	}
}

// requestPort claims an injection port at the worm's source or queues
// for one.
func (n *Network) requestPort(w *worm) {
	p := n.port(w.t.Source)
	if p.inUse < n.nports {
		p.inUse++
		n.grantPort(w)
		return
	}
	qpush(&p.qtail, w)
}

// grantPort starts the startup latency; afterwards the header begins
// to walk.
func (n *Network) grantPort(w *worm) {
	n.sim.AfterCall(n.cfg.Ts, advanceEvent, w)
}

// releasePort returns the source's injection port and admits the next
// queued worm, if any.
func (n *Network) releasePort(node topology.NodeID) {
	p := n.port(node)
	if p.qtail != nil {
		n.grantPort(qpop(&p.qtail))
		return
	}
	p.inUse--
	if p.inUse < 0 {
		panic("network: port underflow")
	}
}

// advance moves the worm's header one hop, or completes the worm when
// the final waypoint is reached. Called at the moment the header sits
// at w.cur ready to move.
func (n *Network) advance(w *worm) {
	// Record a waypoint hit at the current node. Send rejects a
	// waypoint equal to its predecessor, so a node is at most one
	// waypoint in a row; dst caches the next one, and only a hit reads
	// the transfer.
	if w.cur == w.dst {
		if len(w.deliver) == cap(w.deliver) {
			w.deliver = n.deliverSpill.grow(w.deliver)
		}
		w.deliver = append(w.deliver, int32(len(w.held)))
		if wps := w.t.Waypoints; len(w.deliver) < len(wps) {
			w.dst = wps[len(w.deliver)]
		} else {
			n.complete(w)
			return
		}
	}
	dst := w.dst
	h := n.health
	if h != nil && h.nodeDown[w.cur] {
		// The header sits at a node that failed under it: fail-stop.
		n.parkOrDrop(w)
		return
	}
	var hops []routing.Hop
	if w.chApp != nil {
		hops = w.chApp.AppendNextChannels(n.hopScratch[:0], w.cur, dst)
	} else {
		// A selector that only offers NextHops (a transfer's own; the
		// network default routes channels): resolve each candidate's
		// channel from the endpoint pair. This path keeps the
		// non-adjacency guard — in-package selectors are trusted
		// (their coordinate walks cannot emit a non-neighbor).
		hops = n.hopScratch[:0]
		for _, cand := range w.t.Selector.NextHops(w.cur, dst) {
			ch := n.topo.Channel(w.cur, cand)
			if ch == topology.InvalidChannel {
				panic(fmt.Sprintf("network: router proposed non-adjacent hop %d -> %d", w.cur, cand))
			}
			hops = append(hops, routing.Hop{Node: cand, Ch: ch})
		}
	}
	n.hopScratch = hops
	if len(hops) == 0 {
		panic(fmt.Sprintf("network: no route from %d to %d for %s", w.cur, dst, w.describe()))
	}
	// Adaptive choice: first candidate with a free lane (its VC-class
	// lanes in order; the whole channel when there is no policy). On a
	// degraded network (health non-nil) a hop over a dead channel or
	// into a dead node is not a candidate at all — this filter is the
	// re-route: an adaptive selector's remaining candidates are its
	// live admissible detours.
	firstLive := -1
	for i := range hops {
		cand, ch := hops[i].Node, hops[i].Ch
		if h != nil && (h.linkDown[ch] || h.nodeDown[cand]) {
			continue
		}
		if firstLive < 0 {
			firstLive = i
		}
		lo, hi := n.laneRange(w, cand, dst)
		base := int(ch) * n.vcs
		for l := lo; l < hi; l++ {
			// laneFree is the read-only probe: in lazy mode an untouched
			// lane's page stays unallocated until a worm actually takes it.
			if n.laneFree(topology.ChannelID(base + l)) {
				n.acquire(w, cand, topology.ChannelID(base+l))
				return
			}
		}
	}
	if firstLive < 0 {
		// Every admissible hop is dead: the worm cannot make progress
		// on the degraded network.
		n.parkOrDrop(w)
		return
	}
	// All live candidates busy: wait FIFO on the most preferred live
	// candidate's first permitted lane.
	cand, ch := hops[firstLive].Node, hops[firstLive].Ch
	lo, _ := n.laneRange(w, cand, dst)
	lane := topology.ChannelID(int(ch)*n.vcs + lo)
	w.waiting = lane
	qpush(&n.lane(lane).qtail, w)
}

// laneRange returns the half-open lane range [lo, hi) within one
// physical channel's n.vcs lanes that w may occupy for the hop to
// next. Without a VC policy every lane is permitted (adaptive
// head-of-line-blocking relief); with one, the policy's classes
// partition the lanes and the hop's class selects its share. Should
// the network carry fewer lanes than the policy has classes, the
// partition cannot be honoured and all lanes are permitted — the
// 1-VC torus configuration the deadlock regression test documents.
func (n *Network) laneRange(w *worm, next, dst topology.NodeID) (int, int) {
	if n.vcs == 1 || w.vcPol == nil {
		return 0, n.vcs
	}
	classes := w.vcPol.VCClasses()
	if n.vcs < classes {
		return 0, n.vcs
	}
	c := w.vcPol.VCClass(w.cur, next, dst)
	return c * n.vcs / classes, (c + 1) * n.vcs / classes
}

// acquire grants channel ch to w and schedules the header's arrival at
// the next node, one hop delay out.
func (n *Network) acquire(w *worm, next topology.NodeID, ch topology.ChannelID) {
	st := n.lane(ch)
	if st.holder != nil {
		panic("network: acquiring a held channel")
	}
	if h := n.health; h != nil {
		// The robustness suite's always-on invariant: no worm ever
		// acquires a lane of a dead channel or a lane into a dead node.
		if h.linkDown[int(ch)/n.vcs] || h.nodeDown[next] {
			panic(fmt.Sprintf("network: acquiring dead lane %d into node %d", ch, next))
		}
	}
	st.holder = w
	if st.acquires == 0 && n.lazy == nil {
		n.touched = append(n.touched, int32(ch))
	}
	st.acquires++
	w.waiting = topology.InvalidChannel
	if len(w.held) == cap(w.held) {
		w.held = n.heldSpill.grow(w.held)
	}
	w.held = append(w.held, hold{ch, n.sim.Now()})
	if w.path != nil {
		w.path = append(w.path, next)
	}
	w.cur = next
	n.sim.AfterCall(n.hop, advanceEvent, w)
}

// release frees the lane of h, its holder's entry for it, adds the
// busy interval since h.grant to the lane's occupancy, and grants the
// lane to the head of its queue.
func (n *Network) release(h hold) {
	ch := h.lane
	st := n.lane(ch)
	if st.holder == nil {
		panic("network: releasing a free channel")
	}
	st.holder = nil
	st.busyTime += n.sim.Now() - h.grant
	// Keep admitting waiters until one takes the channel or the queue
	// empties: an adaptive worm at the head may grab a different free
	// channel when re-routed, and the waiters behind it must not be
	// stranded on a free channel.
	for st.holder == nil && st.qtail != nil {
		next := qpop(&st.qtail)
		if next.waiting != ch {
			panic("network: queued worm not waiting on this channel")
		}
		next.waiting = topology.InvalidChannel
		n.advance(next)
	}
}

// complete fires when the header has arrived at the final waypoint.
// The body drains at Beta per flit; channel i releases and waypoint
// deliveries fire in pipeline order behind the tail.
func (n *Network) complete(w *worm) {
	now := n.sim.Now()
	beta := n.beta
	tdone := tailDone(now, w.t.Length, beta)
	hops := len(w.held)

	// Tail leaves channel i at tdone - (hops-1-i)*Beta: once the last
	// channel is granted the body streams freely, one flit per Beta
	// per channel, and nothing drained earlier because wormhole
	// back-pressure held all flits in place while the header stalled.
	// Times are nondecreasing in i, matching acquisition order. A
	// waypoint reached after hop h receives its tail when channel h-1
	// finishes, the port frees when the tail enters channel 0, and
	// the worm retires when it leaves the last channel — so every
	// tail action falls on one of the release instants.
	//
	// One tailEvent fires per distinct release instant, in ascending
	// order. A record per action would occupy one contiguous block of
	// sequence numbers reserved now: no other record's (due, seq)
	// falls between two of this worm's actions at any instant, and
	// anything an action schedules gets a larger seq either way.
	// Folding the block into one record per instant therefore leaves
	// the event order — and every output byte — unchanged. So does
	// chaining the records: each instant's record carries the
	// reserved seq of its first channel whenever it is pushed, so
	// only the first is pushed here and each pushes the next.
	w.tcomp = now
	w.tailSeq = n.sim.ReserveSeqs(hops)
	n.sim.AtCallSeq(drainAt(tdone, now, hops-1, beta), w.tailSeq, tailEvent, w)
}
