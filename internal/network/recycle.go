package network

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sim"
	"repro/internal/topology"
)

// netPool recycles drained networks with their simulators, so a study
// does not rebuild ~1.9 MB of tables per 16×16×16 run; a sync.Pool
// keeps nothing alive across garbage collections.
var netPool sync.Pool

// Acquire returns a pristine network over m with its own pristine
// simulator (Sim), recycled when the pool holds one that fits. The
// caller owns both until Release.
func Acquire(m *topology.Mesh, cfg Config) (*Network, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if n, _ := netPool.Get().(*Network); n != nil && n.fits(m, cfg) {
		n.configure(cfg)
		return n, nil
	}
	return New(sim.New(), m, cfg)
}

// fits reports whether cfg on m changes only n's timing and ports.
func (n *Network) fits(m *topology.Mesh, cfg Config) bool {
	return n.topo == topology.Topology(m) && n.vcs == cfg.vcs() && (n.lazy != nil) == cfg.Store.LazyFor(m.Nodes())
}

// refusals counts, process-wide, the Release calls whose Reset
// refused the network.
var refusals atomic.Uint64

// ReleaseRefusals returns how many Release calls in this process found
// their network not drained or not consistent, and dropped it instead
// of pooling it. A run that drains its network never adds to it.
func ReleaseRefusals() uint64 { return refusals.Load() }

// Release pools n and its simulator, reset, unless Reset refuses n;
// a refusal is counted (ReleaseRefusals). The caller must not use
// either afterwards.
func (n *Network) Release() {
	if n.Reset() != nil {
		refusals.Add(1)
		return
	}
	n.sim.Reset()
	netPool.Put(n)
}

// Reset returns a drained network, not its simulator, to the state New
// leaves it in, every link and node alive, keeping grown storage except
// a lazy store's pages. It refuses, changing nothing, a network with
// parked or in-flight worms or one that fails CheckInvariants, which
// it runs on the drained state before wiping it. A dense store wipes
// only the lanes the run touched; its ports need no wipe, as the audit
// found every one idle with an empty queue.
func (n *Network) Reset() error {
	switch {
	case len(n.parked) > 0:
		return fmt.Errorf("network: reset with %d parked worms", len(n.parked))
	case n.activeCount > 0:
		return fmt.Errorf("network: reset with %d worms in flight", n.activeCount)
	}
	if err := n.CheckInvariants(); err != nil {
		return err
	}
	n.health = nil
	if n.lazy != nil {
		n.lazy = newLazyStore(n.lanes, n.topo.Nodes())
	} else {
		for _, l := range n.touched {
			n.channels[l] = channelState{}
		}
		n.touched = n.touched[:0]
	}
	n.injected, n.finished, n.dropped = 0, 0, 0
	if n.slabRun > cap(n.slab) {
		n.slab = make([]Transfer, 0, n.slabRun) // the next such run allocates nothing
	} else {
		clear(n.slab)
		n.slab = n.slab[:0]
	}
	n.slabRun = 0
	return nil
}

// AllocTransfers returns k zeroed Transfers from the network's slab,
// valid until Reset. A full chunk is replaced, not grown: in-flight
// worms still point into it.
func (n *Network) AllocTransfers(k int) []Transfer {
	n.slabRun += k
	if len(n.slab)+k > cap(n.slab) {
		n.slab = make([]Transfer, 0, max(k, cap(n.slab)))
	}
	lo := len(n.slab)
	n.slab = n.slab[:lo+k]
	return n.slab[lo : lo+k : lo+k]
}
