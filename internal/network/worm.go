package network

import (
	"fmt"
	"sync"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// worm is the runtime state of one in-flight transfer.
//
// Worms are pooled process-wide: a drained worm returns to the free
// pool with its per-hop slices' capacity intact, so the saturation
// hot path recycles storage instead of re-growing it for every
// message. All of a worm's calendar entries are (Func, worm) records.
// On a serial network its drain tail is one tailEvent record per
// distinct tail instant (see complete): each consumes the per-worm
// schedule through the rel/del cursors, recomputing the instants from
// tcomp, and the calendar's (due, seq) order fires the records in the
// order complete laid them out in.
type worm struct {
	net *Network
	t   *Transfer

	cur     topology.NodeID
	wpIdx   int // next waypoint to reach
	path    []topology.NodeID
	grants  []sim.Time           // grant time per hop (channel i = path[i]->path[i+1])
	chans   []topology.ChannelID // acquired channel LANES in order (channel·vcs + vc)
	deliver []int                // hop index (1-based node position) per waypoint
	relCur  int                  // next entry of chans to release (drain tail)
	relRecs []laneRel            // sharded drain-event records, one per acquired lane
	delCur  int                  // next entry of deliver to fire (drain tail)
	waiting topology.ChannelID   // channel lane whose queue the worm sits in, or -1
	started sim.Time             // injection request time
	portAt  sim.Time             // port grant time
	tcomp   sim.Time             // completion time: the header reached the last waypoint

	// parkToken is non-nil while the worm is parked awaiting a fault
	// recovery; it guards the park-timeout calendar record (see
	// health.go).
	parkToken *parkToken

	// vcPol is the worm's virtual-channel class policy, resolved once
	// at Send from its selector — and only on networks with more than
	// one VC, so the single-VC hot path never pays the assertion.
	vcPol routing.VCPolicy

	// sel is the worm's routing function (the transfer's, or the
	// network default), with its fast-path interfaces resolved once at
	// Send instead of once per advance: chApp is the channel-resolved
	// form every in-package selector offers, hopApp the node-only
	// append form, either nil when unimplemented. advance consults
	// chApp, then hopApp, then plain NextHops.
	sel    routing.Selector
	chApp  routing.ChannelAppender
	hopApp routing.HopAppender

	// activePrev/activeNext thread the network's in-flight list: an
	// intrusive doubly-linked list replaces the old map[*worm]bool,
	// which paid a pointer hash on every send and every retirement.
	activePrev, activeNext *worm
}

func (w *worm) describe() string {
	return fmt.Sprintf("worm %q src=%d cur=%d wp=%d/%d hops=%d waiting=%d",
		w.t.Tag, w.t.Source, w.cur, w.wpIdx, len(w.t.Waypoints), len(w.chans), w.waiting)
}

// wormSliceCap pre-sizes a fresh worm's per-hop slices: deep enough
// for a typical coded-path traversal of the paper's meshes, and a
// pooled worm keeps whatever larger capacity it grew to.
const wormSliceCap = 16

// wormPool is the process-wide worm free pool. It used to be a
// per-network free list, but studies build a fresh network each —
// a sweep or a saturation benchmark pays the full worm allocation
// ramp-up on every run. putWorm clears every reference a worm holds,
// so recycling across networks is safe, and sync.Pool's per-P caches
// keep Get/Put off any shared lock.
var wormPool = sync.Pool{New: func() any {
	return &worm{
		path:    make([]topology.NodeID, 0, wormSliceCap),
		grants:  make([]sim.Time, 0, wormSliceCap),
		chans:   make([]topology.ChannelID, 0, wormSliceCap),
		deliver: make([]int, 0, wormSliceCap),
	}
}}

// getWorm takes a worm off the free pool, which builds one with
// pre-sized slices when dry.
func (n *Network) getWorm() *worm {
	return wormPool.Get().(*worm)
}

// putWorm resets w (dropping its Transfer reference, keeping slice
// capacity) and returns it to the free pool. Only finishWorm and
// dropWorm may call it: by then every calendar record referencing w
// has fired — park timeouts reference a token, not the worm, exactly
// so a drop cannot race a stale timeout.
func (n *Network) putWorm(w *worm) {
	w.net = nil
	w.t = nil
	w.cur = 0
	w.wpIdx = 0
	w.path = w.path[:0]
	w.grants = w.grants[:0]
	w.chans = w.chans[:0]
	w.deliver = w.deliver[:0]
	w.relRecs = w.relRecs[:0]
	w.relCur, w.delCur = 0, 0
	w.waiting = topology.InvalidChannel
	w.started, w.portAt, w.tcomp = 0, 0, 0
	w.parkToken = nil
	w.vcPol = nil
	w.sel, w.chApp, w.hopApp = nil, nil, nil
	w.activePrev, w.activeNext = nil, nil
	wormPool.Put(w)
}

// Prebuilt event bodies: the network schedules (func, worm) records,
// never closures, so the per-hop scheduling path does not allocate.
func requestPortEvent(env *sim.Env, arg any) { w := arg.(*worm); w.net.requestPort(env, w) }
func advanceEvent(env *sim.Env, arg any)     { w := arg.(*worm); w.net.advance(env, w) }

// laneRel is the sharded drain-event record for one acquired lane.
// The record names its lane explicitly (not a shared cursor): on a
// sharded network one worm's releases land on different shards and
// may execute concurrently within a segment, so they cannot share
// mutable per-worm state. Records live in the worm's pooled relRecs
// slice, so scheduling them stays allocation-free after pool warm-up
// — and a serial network never builds them at all (see complete), so
// its worms stay exactly as small as before the parallel kernel.
type laneRel struct {
	w    *worm
	lane topology.ChannelID
}

// releaseLaneEvent frees one of the worm's acquired channels as its
// tail passes.
func releaseLaneEvent(env *sim.Env, arg any) {
	r := arg.(*laneRel)
	r.w.net.release(env, r.lane)
}

// deliverNextEvent fires the worm's next waypoint delivery on a
// sharded network; the event fires at the scheduled (clamped) arrival
// time, so Now() is the delivery timestamp. Serial-class
// (coordinator-only), so the cursor needs no guard.
func deliverNextEvent(env *sim.Env, arg any) {
	w := arg.(*worm)
	i := w.delCur
	w.delCur++
	w.t.OnDeliver(w.t.Waypoints[i], env.Now())
}

func releasePortEvent(env *sim.Env, arg any) { w := arg.(*worm); w.net.releasePort(env, w.t.Source) }

// finishWorm retires the worm when its tail fully drains. It runs at
// tdone as the last action of the worm's tail, so recycling here
// cannot race an unfired release/delivery; it is serial-class, and
// every release below its key has executed by the time the
// coordinator reaches it.
func finishWorm(env *sim.Env, arg any) {
	w := arg.(*worm)
	n := w.net
	n.activeRemove(w)
	n.finished++
	if w.t.OnDone != nil {
		w.t.OnDone(env.Now())
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
func tailEvent(env *sim.Env, arg any) {
	w := arg.(*worm)
	n := w.net
	s := env.Sim()
	now := env.Now()
	hops := len(w.chans)
	tdone := tailDone(w.tcomp, w.t.Length, n.beta)
	first := w.relCur == 0
	ran := 0
	for w.relCur < hops && !s.Stopped() && drainAt(tdone, w.tcomp, hops-1-w.relCur, n.beta) == now {
		i := w.relCur
		w.relCur++
		n.release(env, w.chans[i])
		ran++
	}
	if w.t.OnDeliver != nil {
		for w.delCur < len(w.deliver) && !s.Stopped() && drainAt(tdone, w.tcomp, hops-w.deliver[w.delCur], n.beta) == now {
			i := w.delCur
			w.delCur++
			w.t.OnDeliver(w.t.Waypoints[i], now)
			ran++
		}
	}
	if first && !s.Stopped() {
		n.releasePort(env, w.t.Source)
		ran++
	}
	if w.relCur == hops && !s.Stopped() {
		finishWorm(env, w)
		ran++
	}
	env.AddFired(ran - 1)
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
	w.net = n
	w.t = t
	w.cur = t.Source
	w.path = append(w.path, t.Source)
	w.waiting = topology.InvalidChannel
	w.started = start
	sel := t.Selector
	if sel == nil {
		sel = n.dor
	}
	w.sel = sel
	w.chApp, _ = sel.(routing.ChannelAppender)
	if w.chApp == nil {
		w.hopApp, _ = sel.(routing.HopAppender)
	}
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
// for one. Serial-class: port state is coordinator-owned.
func (n *Network) requestPort(env *sim.Env, w *worm) {
	p := n.port(w.t.Source)
	if p.inUse < n.nports {
		p.inUse++
		n.grantPort(env, w)
		return
	}
	p.queue.Push(w)
}

// grantPort starts the startup latency; afterwards the header begins
// to walk. The first advance can never complete the worm (a transfer
// may not start at its own first waypoint), so it is shard-class on
// the source's owner.
func (n *Network) grantPort(env *sim.Env, w *worm) {
	w.portAt = env.Now()
	env.AfterCallShard(n.cfg.Ts, advanceEvent, w, n.ownerOf(w.t.Source))
}

// releasePort returns the source's injection port and admits the next
// queued worm, if any. Serial-class.
func (n *Network) releasePort(env *sim.Env, node topology.NodeID) {
	p := n.port(node)
	if p.queue.Len() > 0 {
		n.grantPort(env, p.queue.Pop())
		return
	}
	p.inUse--
	if p.inUse < 0 {
		panic("network: port underflow")
	}
}

// advance moves the worm's header one hop, or completes the worm when
// the final waypoint is reached. Called at the moment the header sits
// at w.cur ready to move. Shard-class on w.cur's owner: everything it
// touches — the candidate lanes out of w.cur, their wait queues, the
// worm's own record — belongs to that shard, except completion, which
// acquire routes to the coordinator (see the completing test there).
func (n *Network) advance(env *sim.Env, w *worm) {
	// Record any waypoint hit at the current node.
	for w.wpIdx < len(w.t.Waypoints) && w.cur == w.t.Waypoints[w.wpIdx] {
		w.deliver = append(w.deliver, len(w.chans))
		w.wpIdx++
	}
	if w.wpIdx == len(w.t.Waypoints) {
		n.complete(env, w)
		return
	}
	dst := w.t.Waypoints[w.wpIdx]
	h := n.health
	if h != nil && h.nodeDown[w.cur] {
		// The header sits at a node that failed under it: fail-stop.
		n.parkOrDrop(env, w)
		return
	}
	if w.chApp != nil {
		n.advanceChannels(env, w, dst, h)
		return
	}
	// Foreign selector: route through the node-append path when
	// offered (cached at Send), else the slice-returning form, and
	// resolve each candidate's channel from the endpoint pair. This
	// path keeps the non-adjacency guard — in-package selectors are
	// trusted (their coordinate walks cannot emit a non-neighbor).
	var cands []topology.NodeID
	if w.hopApp != nil {
		buf := n.scratch(env)
		*buf = w.hopApp.AppendNextHops((*buf)[:0], w.cur, dst)
		cands = *buf
	} else {
		cands = w.sel.NextHops(w.cur, dst)
	}
	if len(cands) == 0 {
		panic(fmt.Sprintf("network: no route from %d to %d for %s", w.cur, dst, w.describe()))
	}
	// Adaptive choice: first candidate with a free lane (its VC-class
	// lanes in order; the whole channel when there is no policy). On a
	// degraded network (health non-nil) a hop over a dead channel or
	// into a dead node is not a candidate at all — this filter is the
	// re-route: an adaptive selector's remaining candidates are its
	// live admissible detours.
	var pick topology.NodeID
	pickLane := topology.InvalidChannel
	firstLive := -1
	for i, cand := range cands {
		ch := n.topo.Channel(w.cur, cand)
		if ch == topology.InvalidChannel {
			panic(fmt.Sprintf("network: router proposed non-adjacent hop %d -> %d", w.cur, cand))
		}
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
				pick, pickLane = cand, topology.ChannelID(base+l)
				break
			}
		}
		if pickLane != topology.InvalidChannel {
			break
		}
	}
	if pickLane == topology.InvalidChannel {
		if firstLive < 0 {
			// Every admissible hop is dead: the worm cannot make
			// progress on the degraded network.
			n.parkOrDrop(env, w)
			return
		}
		// All live candidates busy: wait FIFO on the most preferred
		// live candidate's first permitted lane.
		cand := cands[firstLive]
		ch := n.topo.Channel(w.cur, cand)
		lo, _ := n.laneRange(w, cand, dst)
		lane := topology.ChannelID(int(ch)*n.vcs + lo)
		w.waiting = lane
		n.lane(lane).queue.Push(w)
		return
	}
	n.acquire(env, w, pick, pickLane)
}

// advanceChannels is advance's candidate loop over channel-resolved
// hops: the selector emits each candidate's directed channel during
// the coordinate walk it already performs (routing.ChannelAppender),
// so no candidate pays the endpoint-pair channel derivation. Same
// preference order, same adaptive first-free-lane choice, same
// fault filtering and FIFO wait as the generic loop above.
func (n *Network) advanceChannels(env *sim.Env, w *worm, dst topology.NodeID, h *healthState) {
	buf := n.hopScratchFor(env)
	hops := w.chApp.AppendNextChannels((*buf)[:0], w.cur, dst)
	*buf = hops
	if len(hops) == 0 {
		panic(fmt.Sprintf("network: no route from %d to %d for %s", w.cur, dst, w.describe()))
	}
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
			if n.laneFree(topology.ChannelID(base + l)) {
				n.acquire(env, w, cand, topology.ChannelID(base+l))
				return
			}
		}
	}
	if firstLive < 0 {
		n.parkOrDrop(env, w)
		return
	}
	cand, ch := hops[firstLive].Node, hops[firstLive].Ch
	lo, _ := n.laneRange(w, cand, dst)
	lane := topology.ChannelID(int(ch)*n.vcs + lo)
	w.waiting = lane
	n.lane(lane).queue.Push(w)
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
// the next node, one hop delay out — the event that carries the worm
// across a shard boundary, and the reason the hop delay is a hard
// lookahead bound.
func (n *Network) acquire(env *sim.Env, w *worm, next topology.NodeID, ch topology.ChannelID) {
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
	now := env.Now()
	n.noteAcquire(ch, now)
	w.waiting = topology.InvalidChannel
	w.grants = append(w.grants, now)
	w.chans = append(w.chans, ch)
	w.path = append(w.path, next)
	w.cur = next
	// Shard classification of the arrival. An arrival at the final
	// waypoint completes the worm, and complete schedules deliveries,
	// port release and retirement — callbacks that feed back into the
	// workload, and zero-lookahead records that may land on other
	// shards. Those must run at their exact serial position, so a
	// completing arrival is serial-class: the coordinator executes it
	// in global order. The test is exact because consecutive waypoints
	// are distinct (Send validates), so a non-final or non-waypoint
	// arrival can never reach complete.
	sh := int32(-1)
	if n.part != nil && !(w.wpIdx == len(w.t.Waypoints)-1 && next == w.t.Waypoints[w.wpIdx]) {
		sh = int32(n.part.Owner(next))
	}
	env.AfterCallShard(n.hop, advanceEvent, w, sh)
}

// release frees channel ch and grants it to the head of its queue.
// Shard-class on the lane's owner: its waiters are worms whose header
// sits at the lane's source node, so admitting them stays inside the
// shard.
func (n *Network) release(env *sim.Env, ch topology.ChannelID) {
	st := n.lane(ch)
	if st.holder == nil {
		panic("network: releasing a free channel")
	}
	st.holder = nil
	n.noteRelease(ch, env.Now())
	// Keep admitting waiters until one takes the channel or the queue
	// empties: an adaptive worm at the head may grab a different free
	// channel when re-routed, and the waiters behind it must not be
	// stranded on a free channel.
	for st.holder == nil && st.queue.Len() > 0 {
		next := st.queue.Pop()
		if next.waiting != ch {
			panic("network: queued worm not waiting on this channel")
		}
		next.waiting = topology.InvalidChannel
		n.advance(env, next)
	}
}

// complete fires when the header has arrived at the final waypoint.
// The body drains at Beta per flit; channel i releases and waypoint
// deliveries fire in pipeline order behind the tail.
//
// complete always executes on the coordinator: its releases clamp to
// "now" when the path is longer than the body (zero lookahead, any
// shard), and its delivery/retirement callbacks feed the workload's
// injection loop, so all of its records need exact global sequence
// numbers. acquire guarantees this by classifying completing arrivals
// serial-class; the panic pins that invariant.
func (n *Network) complete(env *sim.Env, w *worm) {
	if !env.Coordinator() {
		panic("network: complete on a shard worker")
	}
	now := env.Now()
	beta := n.beta
	tdone := tailDone(now, w.t.Length, beta)
	hops := len(w.chans)

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
	// A serial network schedules one tailEvent per distinct release
	// instant, in ascending order. The per-action form pushed all of
	// a worm's tail records back to back too, so both forms occupy
	// one contiguous block of sequence numbers: no other record's
	// (due, seq) falls between two of this worm's actions at any
	// instant, and anything an action schedules gets a larger seq
	// either way. Folding the block therefore leaves the event order
	// — and every output byte — unchanged.
	if n.part == nil {
		w.tcomp = now
		var prev sim.Time
		for i := range hops {
			at := drainAt(tdone, now, hops-1-i, beta)
			if i == 0 || at != prev {
				env.AtCall(at, tailEvent, w)
			}
			prev = at
		}
		return
	}

	// A sharded network keeps one record per action: its releases fan
	// out to per-shard calendars, where a shared cursor would race, so
	// each names its lane explicitly. Build every record before
	// scheduling any: append may regrow the slice, and the calendar
	// must hold pointers into the final array.
	w.relRecs = w.relRecs[:0]
	for _, lane := range w.chans {
		w.relRecs = append(w.relRecs, laneRel{w: w, lane: lane})
	}
	for i := range w.relRecs {
		at := drainAt(tdone, now, hops-1-i, beta)
		env.AtCallShard(at, releaseLaneEvent, &w.relRecs[i], n.laneOwner(w.relRecs[i].lane))
	}
	if w.t.OnDeliver != nil {
		for _, h := range w.deliver {
			env.AtCall(drainAt(tdone, now, hops-h, beta), deliverNextEvent, w)
		}
	}
	env.AtCall(drainAt(tdone, now, hops-1, beta), releasePortEvent, w)
	env.AtCall(tdone, finishWorm, w)
}
