package network

import (
	"fmt"
	"sync"

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

// Release pools n and its simulator, reset, unless Reset refuses n.
// The caller must not use either afterwards.
func (n *Network) Release() {
	if n.Reset() != nil {
		return
	}
	n.sim.Reset()
	netPool.Put(n)
}

// Reset returns a drained network, not its simulator, to the state New
// leaves it in, every link and node alive, keeping grown storage except
// a lazy store's pages. It refuses, changing nothing, a network with
// parked or in-flight worms; otherwise it returns CheckInvariants.
func (n *Network) Reset() error {
	switch {
	case len(n.parked) > 0:
		return fmt.Errorf("network: reset with %d parked worms", len(n.parked))
	case n.activeCount > 0:
		return fmt.Errorf("network: reset with %d worms in flight", n.activeCount)
	}
	n.health = nil
	if n.lazy != nil {
		n.lazy = newLazyStore(n.lanes, n.topo.Nodes())
	} else {
		for i := range n.ports {
			n.ports[i].inUse = 0
		}
		clear(n.busyTime)
		clear(n.busySince)
		clear(n.acquires)
	}
	n.injected, n.finished, n.dropped = 0, 0, 0
	if n.slabRun > cap(n.slab) {
		n.slab = make([]Transfer, 0, n.slabRun) // the next such run allocates nothing
	} else {
		clear(n.slab)
		n.slab = n.slab[:0]
	}
	n.slabRun = 0
	return n.CheckInvariants()
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
