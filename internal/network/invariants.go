package network

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/topology"
)

// CheckInvariants audits the network's bookkeeping and returns every
// violation it finds joined into one error, or nil. Between events it
// must hold that:
//
//   - every lane holder is an in-flight worm whose unreleased acquired
//     lanes (held[relCur:]) include that lane, and every such lane of
//     an in-flight worm is held by it;
//   - every worm queued on a lane is in flight and names that lane in
//     its waiting field, and every in-flight worm that names a lane
//     there sits in some lane's queue;
//   - no worm waits on a lane of a dead channel or a lane out of a
//     dead node (fault kicks drain those queues, and advance never
//     queues on a dead hop);
//   - Injected() == Finished() + Dropped() + InFlight();
//   - no node has more injection ports in use than it has, and a
//     drained network (nothing in flight) has every port idle with an
//     empty queue.
//
// A holder may sit on a dead lane: the fault model is fail-stop at
// acquisition, so a worm granted a lane before it failed keeps it
// until its tail passes, and acquire panics on any grant after the
// failure. The audit walks the lanes a run can have touched: on a
// dense network those acquired since New or Reset (a lane no worm
// ever acquired has no holder and no queue), on a lazy one those of
// allocated pages. Reset runs it on every drained network, so its
// lane scan follows the run, not the topology; the port scan costs
// what Reset's port wipe used to.
func (n *Network) CheckInvariants() error {
	var errs []error
	fail := func(format string, args ...any) {
		errs = append(errs, fmt.Errorf("network: "+format, args...))
	}

	active := make(map[*worm]bool, n.activeCount)
	waiting := 0
	for w := n.activeHead; w != nil; w = w.activeNext {
		active[w] = true
		if w.waiting != topology.InvalidChannel {
			waiting++
		}
		for _, h := range w.held[w.relCur:] {
			if st := n.laneIfTouched(h.lane); st == nil || st.holder != w {
				fail("%s: acquired lane %d is not held by it", w.describe(), h.lane)
			}
		}
	}
	if len(active) != n.activeCount {
		fail("in-flight list holds %d worms, count says %d", len(active), n.activeCount)
	}
	if n.injected != n.finished+n.dropped+uint64(n.activeCount) {
		fail("injected %d != finished %d + dropped %d + in flight %d", n.injected, n.finished, n.dropped, n.activeCount)
	}

	queued := 0
	n.eachBusyLane(func(lane topology.ChannelID, st *channelState) {
		if w := st.holder; w != nil {
			if !active[w] {
				fail("lane %d held by a worm that is not in flight", lane)
			} else if !slices.ContainsFunc(w.held[w.relCur:], func(h hold) bool { return h.lane == lane }) {
				fail("lane %d held by %s, which has not acquired it", lane, w.describe())
			}
		}
		// The queue is a ring through qnext (see qpush); a ring longer
		// than the in-flight list, or one that breaks, is corrupt.
		for w, steps := st.qtail, 0; w != nil; steps++ {
			if w = w.qnext; w == nil || steps == n.activeCount {
				fail("lane %d queue is not a ring of in-flight worms", lane)
				break
			}
			queued++
			switch {
			case !active[w]:
				fail("lane %d queues a worm that is not in flight", lane)
			case w.waiting != lane:
				fail("lane %d queues %s", lane, w.describe())
			case n.laneDead(w.cur, lane):
				fail("%s waits on dead lane %d", w.describe(), lane)
			}
			if w == st.qtail {
				break
			}
		}
	})
	if queued != waiting {
		fail("%d worms are queued on lanes but %d in-flight worms are waiting", queued, waiting)
	}

	n.eachBusyPort(func(node topology.NodeID, p *portState) {
		switch {
		case p.inUse < 0 || p.inUse > n.nports:
			fail("node %d has %d of its %d injection ports in use", node, p.inUse, n.nports)
		case n.activeCount == 0:
			fail("drained network: node %d has %d injection ports in use, queue empty %t", node, p.inUse, p.qtail == nil)
		}
	})
	return errors.Join(errs...)
}

// eachBusyLane calls fn for every lane that is held or queued on,
// among those a run can have touched: the touched list of a dense
// network, the lanes of allocated pages of a lazy one. A free lane
// with an empty queue is consistent in any state, so on a drained
// network fn never runs.
func (n *Network) eachBusyLane(fn func(topology.ChannelID, *channelState)) {
	if n.lazy == nil {
		for _, l := range n.touched {
			if st := &n.channels[l]; st.holder != nil || st.qtail != nil {
				fn(topology.ChannelID(l), st)
			}
		}
		return
	}
	for p, page := range n.lazy.lanePages {
		if page == nil {
			continue
		}
		for i := range page.ch {
			if st := &page.ch[i]; st.holder != nil || st.qtail != nil {
				fn(topology.ChannelID(p<<pageBits+i), st)
			}
		}
	}
}

// eachBusyPort calls fn for every node whose injection ports are in
// use or queued on, scanning every node of a dense network and the
// allocated pages of a lazy one. An idle port with an empty queue is
// consistent in any state, so on a drained network fn never runs.
func (n *Network) eachBusyPort(fn func(topology.NodeID, *portState)) {
	if n.lazy == nil {
		for i := range n.ports {
			if p := &n.ports[i]; *p != (portState{}) {
				fn(topology.NodeID(i), p)
			}
		}
		return
	}
	for pg, page := range n.lazy.portPages {
		if page == nil {
			continue
		}
		for i := range page.ports {
			if p := &page.ports[i]; *p != (portState{}) {
				fn(topology.NodeID(pg<<pageBits+i), p)
			}
		}
	}
}

// laneDead reports whether lane, a lane out of node from, crosses a
// failed channel or touches a failed node.
func (n *Network) laneDead(from topology.NodeID, lane topology.ChannelID) bool {
	h := n.health
	if h == nil {
		return false
	}
	ch := topology.ChannelID(int(lane) / n.vcs)
	if h.linkDown[ch] || h.nodeDown[from] {
		return true
	}
	for _, nb := range topology.AppendNeighborsOf(n.topo, from, nil) {
		if n.topo.Channel(from, nb) == ch {
			return h.nodeDown[nb]
		}
	}
	return false
}
