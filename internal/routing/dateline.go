package routing

import (
	"repro/internal/topology"
)

// Virtual-channel policies. A torus ring is a cycle of channels, so
// any deterministic minimal routing function on it has a cyclic
// channel dependency graph — the classical reason plain dimension-
// order routing deadlocks on k-ary n-cubes. The classical fix (Dally
// & Seitz) is a dateline: split each physical channel into virtual
// channels, and let a worm switch VC class when its remaining route
// no longer crosses the ring's wraparound edge. The class-0 subgraph
// then misses the edge past the dateline and the class-1 subgraph
// never contains a wrap edge at all, so both are acyclic, and class
// transitions only ever go 0 → 1 within a dimension.

// VCPolicy is implemented by selectors that steer worms across
// virtual channels. VCClass maps one hop (cur → next, en route to
// dst) to a VC class in [0, VCClasses()); the network partitions its
// configured VC lanes among the classes and a worm only ever
// occupies lanes of its hop's class. The class must be a pure
// function of (cur, next, dst) so that the channel dependency graph
// (internal/cdg) can enumerate it without path history.
type VCPolicy interface {
	// VCClasses returns the number of VC classes the policy uses
	// (2 for dateline routing).
	VCClasses() int
	// VCClass returns the class of the hop cur → next toward dst.
	VCClass(cur, next, dst topology.NodeID) int
}

// datelineClass implements the dateline rule on mesh m: class 0
// while the remaining route in the hop's dimension still crosses the
// wraparound edge (the hop itself included), class 1 once it no
// longer does. Hops along dimensions without wrap links are class 0:
// they cannot close a ring, so either class is safe, and class 0
// keeps a pure mesh entirely in the first lane partition.
func datelineClass(m *topology.Mesh, cur, next, dst topology.NodeID) int {
	for d := 0; d < m.NDims(); d++ {
		cc := m.CoordAxis(cur, d)
		nc := m.CoordAxis(next, d)
		if cc == nc {
			continue
		}
		if !m.WrapDim(d) {
			return 0
		}
		k := m.Dim(d)
		// Hop direction, wrap steps normalised: k-1 → 0 is +1.
		dir := nc - cc
		if dir == k-1 {
			dir = -1
		} else if dir == -(k - 1) {
			dir = +1
		}
		dc := m.CoordAxis(dst, d)
		if dc == cc {
			return 0
		}
		// Travelling +1 the remaining route crosses the wrap edge
		// (k-1 → 0) iff the destination coordinate is below the
		// current one; travelling -1, iff it is above.
		if dir > 0 {
			if dc < cc {
				return 0
			}
			return 1
		}
		if dc > cc {
			return 0
		}
		return 1
	}
	return 0
}

// datelineHop returns the minimal next hop along wrap dimension d
// toward dst (shorter modular arc, ties positive) with its channel —
// the deterministic per-dimension substrate of the torus routing
// functions.
func datelineHop(m *topology.Mesh, cur topology.NodeID, d, cc, dc int) Hop {
	k := m.Dim(d)
	forward := dc - cc
	if forward < 0 {
		forward += k
	}
	if forward <= k-forward {
		return Hop{Node: m.Step(cur, d, +1), Ch: m.DirChannel(cur, d, 0)}
	}
	return Hop{Node: m.Step(cur, d, -1), Ch: m.DirChannel(cur, d, 1)}
}

// DatelineDOR is dimension-order routing with dateline virtual
// channels: hop-for-hop the same minimal modular routes as DOR on a
// torus, plus the VC-class switch on wraparound crossings that makes
// it deadlock-free with two or more VCs per physical channel
// (verified mechanically by cdg.DeadlockFree). It is the default
// router the network installs on a torus with virtual channels.
type DatelineDOR struct {
	*DOR
}

// NewDatelineDOR returns dateline dimension-order routing over m.
// order is as for NewDOR.
func NewDatelineDOR(m *topology.Mesh, order ...int) *DatelineDOR {
	return &DatelineDOR{DOR: NewDOR(m, order...)}
}

// Name implements Selector.
func (r *DatelineDOR) Name() string { return "dateline-dor" }

// VCClasses implements VCPolicy.
func (r *DatelineDOR) VCClasses() int { return 2 }

// VCClass implements VCPolicy.
func (r *DatelineDOR) VCClass(cur, next, dst topology.NodeID) int {
	return datelineClass(r.m, cur, next, dst)
}

var (
	_ Selector        = (*DatelineDOR)(nil)
	_ ChannelAppender = (*DatelineDOR)(nil)
	_ VCPolicy        = (*DatelineDOR)(nil)
)
