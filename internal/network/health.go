package network

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Fault model. The network is fail-stop at acquisition granularity: a
// failed channel or node stops granting resources the instant the
// failure event fires, but flits already in transit drain normally —
// a worm HOLDING a channel that fails keeps it until its tail passes,
// exactly like a router whose output queue empties after the cable is
// cut. What a failure does affect, immediately and deterministically:
//
//   - no worm acquires a lane of a dead channel, a lane into a dead
//     node, or a lane out of one (acquire enforces this with a panic,
//     the robustness suite's always-on invariant);
//   - worms queued FIFO on a lane that dies are kicked back through
//     advance, where an adaptive selector may offer a live detour;
//   - a worm none of whose admissible next hops is live parks for
//     Config.DeadWait µs awaiting a recovery, or — with a zero
//     DeadWait — is dropped on the spot: its held lanes release in
//     path order, its injection port frees, and Dropped() counts it.
//
// A dropped worm delivers NOTHING, even to waypoints its header
// already passed: in wormhole switching a waypoint consumes the
// message as the body streams by, and a killed worm's body never
// drains. Health state is allocated lazily on the first Fail call, so
// a network that never sees a fault is byte- and allocation-identical
// to the pre-fault implementation.
//
// Deadlock freedom on the degraded network: failing a channel only
// REMOVES edges from the channel dependence graph the routing
// substrate was certified on (internal/cdg), and every subgraph of an
// acyclic graph is acyclic — so faults can cause drops and stalls,
// never a circular wait. Parked worms are bounded by their DeadWait
// timers, so the calendar always drains.

// healthState tracks which physical channels and nodes are down. It
// is nil until the first failure is injected; every hot-path check is
// guarded by that nil test.
type healthState struct {
	linkDown []bool // indexed by physical topology.ChannelID
	nodeDown []bool // indexed by topology.NodeID
}

// parkToken guards a parked worm's timeout record. The calendar entry
// references the token, not the worm: by the time the timeout fires
// the worm may have been revived — or revived, drained and recycled
// into another goroutine's network — so the handler must no-op unless
// the token still names its worm. w is cleared wherever a worm drops
// its token (revive, timeout; a worm is never recycled while parked),
// so a stale timeout reads only its own token and never touches a worm
// it no longer owns.
type parkToken struct{ w *worm }

func (n *Network) ensureHealth() *healthState {
	if n.health == nil {
		n.health = &healthState{
			linkDown: make([]bool, n.topo.ChannelSlots()),
			nodeDown: make([]bool, n.topo.Nodes()),
		}
		// A degraded network loses its lookahead: a dropped worm
		// releases its whole held chain instantly across shards, and
		// kicks/revivals re-route worms synchronously. The sharded
		// kernel falls back to coordinator-only execution for the rest
		// of the run (identical output, no parallel segments). Faults
		// are always injected from serial-class events, so this fires
		// on the coordinator between segments.
		n.sim.Degrade()
	}
	return n.health
}

// LinkAlive reports whether physical channel ch is up. Channels of a
// network that never saw a fault are always up.
func (n *Network) LinkAlive(ch topology.ChannelID) bool {
	return n.health == nil || !n.health.linkDown[ch]
}

// NodeAlive reports whether node id is up.
func (n *Network) NodeAlive(id topology.NodeID) bool {
	return n.health == nil || !n.health.nodeDown[id]
}

// Dropped returns the number of worms aborted because every
// admissible next hop was dead (and any DeadWait grace expired).
func (n *Network) Dropped() uint64 { return n.dropped }

// Parked returns the number of worms currently parked awaiting a
// recovery.
func (n *Network) Parked() int { return len(n.parked) }

func (n *Network) checkChannel(ch topology.ChannelID) {
	if int(ch) < 0 || int(ch) >= n.topo.ChannelSlots() {
		panic(fmt.Sprintf("network: channel %d out of range [0,%d)", ch, n.topo.ChannelSlots()))
	}
}

func (n *Network) checkNode(id topology.NodeID) {
	if int(id) < 0 || int(id) >= n.topo.Nodes() {
		panic(fmt.Sprintf("network: node %d out of range [0,%d)", id, n.topo.Nodes()))
	}
}

// FailLink takes physical channel ch down. Worms queued on its lanes
// are kicked back through advance in FIFO order per lane, so adaptive
// worms re-route and dead-ended ones park or drop. The current
// holders, if any, keep draining (fail-stop at acquisition). Failing
// a dead channel is a no-op.
func (n *Network) FailLink(ch topology.ChannelID) {
	n.checkChannel(ch)
	h := n.ensureHealth()
	if h.linkDown[ch] {
		return
	}
	h.linkDown[ch] = true
	n.kickWaiters(ch)
}

// RestoreLink brings physical channel ch back up and re-advances
// every parked worm (any recovery may have opened any parked worm's
// path; re-evaluating all of them is deterministic and cheap because
// parking is rare). Restoring a live channel is a no-op.
func (n *Network) RestoreLink(ch topology.ChannelID) {
	n.checkChannel(ch)
	if n.health == nil || !n.health.linkDown[ch] {
		return
	}
	n.health.linkDown[ch] = false
	n.reviveParked()
}

// FailNode takes node id down: nothing routes into or out of it any
// more. Worms queued on its adjacent channels (both directions) are
// kicked; worms whose header sits AT the node park or drop on their
// next advance. Failing a dead node is a no-op.
func (n *Network) FailNode(id topology.NodeID) {
	n.checkNode(id)
	h := n.ensureHealth()
	if h.nodeDown[id] {
		return
	}
	h.nodeDown[id] = true
	// AppendNeighborsOf keeps implicit topologies adjacency-table-free;
	// enumeration order matches Adjacent exactly (fault determinism).
	for _, nb := range topology.AppendNeighborsOf(n.topo, id, nil) {
		if out := n.topo.Channel(id, nb); out != topology.InvalidChannel {
			n.kickWaiters(out)
		}
		if in := n.topo.Channel(nb, id); in != topology.InvalidChannel {
			n.kickWaiters(in)
		}
	}
}

// RestoreNode brings node id back up and re-advances parked worms.
func (n *Network) RestoreNode(id topology.NodeID) {
	n.checkNode(id)
	if n.health == nil || !n.health.nodeDown[id] {
		return
	}
	n.health.nodeDown[id] = false
	n.reviveParked()
}

// kickWaiters drains the FIFO queues of every lane of physical
// channel ch and re-advances each worm: with the lane now dead,
// advance either finds a live detour, parks, or drops. Lane order
// then queue order keeps the kick deterministic.
func (n *Network) kickWaiters(ch topology.ChannelID) {
	base := int(ch) * n.vcs
	for l := 0; l < n.vcs; l++ {
		st := n.laneIfTouched(topology.ChannelID(base + l))
		if st == nil {
			// Untouched lazy lane: nothing ever queued on it.
			continue
		}
		for st.queue.Len() > 0 {
			w := st.queue.Pop()
			if w.waiting != topology.ChannelID(base+l) {
				panic("network: queued worm not waiting on this channel")
			}
			w.waiting = topology.InvalidChannel
			n.advance(n.sim.Env(), w)
		}
	}
}

// parkOrDrop handles a worm with no live admissible next hop: park it
// for DeadWait µs awaiting a recovery, or drop it immediately when no
// grace is configured.
func (n *Network) parkOrDrop(env *sim.Env, w *worm) {
	if n.deadWait > 0 {
		tk := &parkToken{w: w}
		w.parkToken = tk
		n.parked = append(n.parked, w)
		env.AfterCall(n.deadWait, parkTimeoutEvent, tk)
		return
	}
	n.dropWorm(env, w)
}

// parkTimeoutEvent fires DeadWait after a worm parked. The token
// check makes stale records harmless: a revived (or long recycled)
// worm has detached this token.
func parkTimeoutEvent(env *sim.Env, arg any) {
	tk := arg.(*parkToken)
	w := tk.w
	if w == nil {
		return
	}
	tk.w = nil
	w.parkToken = nil
	n := w.net
	n.unpark(w)
	n.dropWorm(env, w)
}

// unpark removes w from the parked list, preserving order.
func (n *Network) unpark(w *worm) {
	for i, p := range n.parked {
		if p == w {
			n.parked = append(n.parked[:i], n.parked[i+1:]...)
			return
		}
	}
	panic("network: unparking a worm that is not parked")
}

// reviveParked re-advances every parked worm in park order. A worm
// whose path is still dead re-parks with a fresh token and a fresh
// DeadWait deadline; its old timeout record no-ops on the token test.
func (n *Network) reviveParked() {
	if len(n.parked) == 0 {
		return
	}
	ws := n.parked
	n.parked = nil
	for _, w := range ws {
		w.parkToken.w = nil
		w.parkToken = nil
		n.advance(n.sim.Env(), w)
	}
}

// dropWorm aborts w: the injection port frees, every held lane
// releases in path order (admitting its waiters), the drop is
// counted, the Transfer's OnPath/OnDrop hooks fire, and the worm
// returns to the pool. No delivery ever fires for a dropped worm —
// its body never drained past any waypoint.
func (n *Network) dropWorm(env *sim.Env, w *worm) {
	if w.waiting != topology.InvalidChannel {
		panic("network: dropping a queued worm")
	}
	if w.parkToken != nil {
		panic("network: dropping a parked worm without unparking it")
	}
	n.activeRemove(w)
	n.dropped++
	n.releasePort(env, w.t.Source)
	// w.chans survives intact through the releases (release indexes the
	// network's channel table, not the worm), so the path-order walk is
	// safe; putWorm truncates it afterwards.
	for _, lane := range w.chans {
		n.release(env, lane)
	}
	if w.t.OnPath != nil {
		w.t.OnPath(w.path, false)
	}
	if w.t.OnDrop != nil {
		w.t.OnDrop(env.Now())
	}
	n.putWorm(w)
}
