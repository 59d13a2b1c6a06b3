package broadcast

import (
	"math"

	"repro/internal/topology"
)

// RD is the Recursive Doubling broadcast of Barnett et al. [2]: the
// mesh is broadcast dimension by dimension; within each line the node
// holding the message repeatedly halves its partition and sends one
// unicast to the node at the same relative position in the other
// half. It needs ceil(log2 N) message-passing steps on an N-node mesh
// and assumes a one-port router with dimension-order routing.
type RD struct{}

// NewRD returns the Recursive Doubling planner.
func NewRD() RD { return RD{} }

// Name implements Algorithm.
func (RD) Name() string { return "RD" }

// Ports implements Algorithm: RD is a one-port algorithm.
func (RD) Ports() int { return 1 }

// StepsFor returns the number of message-passing steps RD uses on m:
// the sum over dimensions of ceil(log2 extent).
func (RD) StepsFor(m *topology.Mesh) int {
	total := 0
	for d := 0; d < m.NDims(); d++ {
		total += ceilLog2(m.Dim(d))
	}
	return total
}

func ceilLog2(k int) int {
	if k <= 1 {
		return 0
	}
	return int(math.Ceil(math.Log2(float64(k))))
}

// Plan implements Algorithm.
func (rd RD) Plan(m *topology.Mesh, src topology.NodeID) (*Plan, error) {
	// RD is pure unicast doubling: exactly one send, with one
	// waypoint, informs each of the other N-1 nodes.
	n := m.Nodes()
	b := newPlanBuilder(rd.Name(), src, rd.StepsFor(m), n-1, n-1)

	// informed tracks the nodes already holding the message;
	// dimension phases expand it one dimension at a time, swapping
	// between two buffers of the final size.
	informed := append(make([]topology.NodeID, 0, n), src)
	next := make([]topology.NodeID, 0, n)
	stepBase, stride := 1, 1
	for d := 0; d < m.NDims(); d++ {
		k := m.Dim(d)
		if rounds := ceilLog2(k); rounds > 0 {
			line := make([]topology.NodeID, k)
			next = next[:0]
			for _, holder := range informed {
				// Node IDs along dimension d are stride apart.
				pos := m.CoordAxis(holder, d)
				first := holder - topology.NodeID(pos*stride)
				for i := range line {
					line[i] = first + topology.NodeID(i*stride)
				}
				next = rd.halveLine(b, line, 0, k, pos, stepBase, next)
			}
			informed, next = next, informed
			stepBase += rounds
		}
		stride *= k
	}
	return b.finish(), nil
}

// halveLine recursively plans the doubling on line[lo:hi] with the
// holder at index pos, starting at step. It appends every line node
// that ends up holding the message (the whole segment) to out — one
// shared accumulator rather than a slice per recursion level.
func (rd RD) halveLine(b *planBuilder, line []topology.NodeID, lo, hi, pos, step int, out []topology.NodeID) []topology.NodeID {
	if hi-lo <= 1 {
		return append(out, line[pos])
	}
	mid := lo + (hi-lo+1)/2 // lower half is the ceil half
	var peer int
	if pos < mid {
		peer = mid + (pos - lo)
		if peer >= hi {
			peer = hi - 1
		}
	} else {
		peer = lo + (pos - mid)
		if peer >= mid {
			peer = mid - 1
		}
	}
	b.chain(step, line[pos], false, line[peer])
	if pos < mid {
		out = rd.halveLine(b, line, lo, mid, pos, step+1, out)
		out = rd.halveLine(b, line, mid, hi, peer, step+1, out)
	} else {
		out = rd.halveLine(b, line, mid, hi, pos, step+1, out)
		out = rd.halveLine(b, line, lo, mid, peer, step+1, out)
	}
	return out
}
