// Package routing implements the unicast routing functions underneath
// the broadcast algorithms: dimension-order routing (used by RD and
// EDN), the west-first turn model family (used by AB), and the
// odd-even turn model as an alternative adaptive substrate. A routing
// function is a Selector that, at each node, returns the candidate
// next hops toward a destination in preference order; deterministic
// functions return exactly one candidate.
package routing

import (
	"fmt"

	"repro/internal/topology"
)

// Selector is a minimal routing function bound to a mesh. NextHops
// returns the permitted next nodes from cur toward dst in preference
// order; it returns nil only when cur == dst. Every candidate must be
// one hop closer to dst (minimal routing). A selector outside this
// package need only implement Selector: the network resolves each of
// its candidates' channels from the endpoint pair.
type Selector interface {
	Name() string
	NextHops(cur, dst topology.NodeID) []topology.NodeID
}

// Hop is one routing candidate with its directed channel already
// resolved: the next node plus the channel cur → next. Resolving the
// channel inside the routing function is nearly free — the coordinate
// walk already knows the hop's dimension and direction — where the
// network would otherwise re-derive both from the endpoint pair
// (Mesh.Channel) for every candidate of every header advance.
type Hop struct {
	Node topology.NodeID
	Ch   topology.ChannelID
}

// ChannelAppender is the routing walk itself: AppendNextChannels
// appends the candidates from cur toward dst to buf, in preference
// order, each with its directed channel attached, and appends nothing
// only when cur == dst. The network routes every hop through it into
// one reused buffer, so routing costs no allocation. Every selector in
// this package implements it, and its NextHops is the same walk's
// nodes (nextNodes).
type ChannelAppender interface {
	AppendNextChannels(buf []Hop, cur, dst topology.NodeID) []Hop
}

// nextNodes is NextHops for every selector in this package: the nodes
// of a's walk from cur toward dst, nil when cur == dst.
func nextNodes(a ChannelAppender, cur, dst topology.NodeID) []topology.NodeID {
	hops := a.AppendNextChannels(nil, cur, dst)
	if len(hops) == 0 {
		return nil
	}
	nodes := make([]topology.NodeID, len(hops))
	for i, h := range hops {
		nodes[i] = h.Node
	}
	return nodes
}

// Path expands a selector into a concrete path from src to dst by
// always taking the first candidate. The returned path includes both
// endpoints. It panics if the selector stalls or wanders, which would
// be a routing-function bug.
func Path(s Selector, m *topology.Mesh, src, dst topology.NodeID) []topology.NodeID {
	path := []topology.NodeID{src}
	cur := src
	for steps := 0; cur != dst; steps++ {
		if steps > m.Nodes() {
			panic(fmt.Sprintf("routing: %s looping from %d to %d", s.Name(), src, dst))
		}
		cands := s.NextHops(cur, dst)
		if len(cands) == 0 {
			panic(fmt.Sprintf("routing: %s stalled at %d short of %d", s.Name(), cur, dst))
		}
		cur = cands[0]
		path = append(path, cur)
	}
	return path
}

// DOR is deterministic dimension-order routing: the message corrects
// its coordinate offsets one dimension at a time in a fixed order
// (XYZ by default). It is the substrate of RD and EDN in the paper.
type DOR struct {
	m     *topology.Mesh
	order []int
}

// NewDOR returns dimension-order routing over m. order lists the
// dimensions in correction order; empty means 0,1,2,…
func NewDOR(m *topology.Mesh, order ...int) *DOR {
	if len(order) == 0 {
		order = make([]int, m.NDims())
		for i := range order {
			order[i] = i
		}
	}
	if len(order) != m.NDims() {
		panic(fmt.Sprintf("routing: DOR order has %d dims, mesh has %d", len(order), m.NDims()))
	}
	seen := make([]bool, m.NDims())
	for _, d := range order {
		if d < 0 || d >= m.NDims() || seen[d] {
			panic("routing: DOR order must be a permutation of the dimensions")
		}
		seen[d] = true
	}
	return &DOR{m: m, order: append([]int(nil), order...)}
}

// Name implements Selector.
func (r *DOR) Name() string { return "dor" }

// NextHops implements Selector. The single candidate corrects the
// first out-of-place dimension in the configured order. On a torus
// the shorter modular direction is taken (ties go positive).
func (r *DOR) NextHops(cur, dst topology.NodeID) []topology.NodeID {
	return nextNodes(r, cur, dst)
}

// AppendNextChannels implements ChannelAppender: the single candidate
// with its channel emitted from the (dimension, direction) pair the
// walk just computed. A wrap dimension takes datelineHop's shorter
// modular arc.
func (r *DOR) AppendNextChannels(buf []Hop, cur, dst topology.NodeID) []Hop {
	for _, d := range r.order {
		cc := r.m.CoordAxis(cur, d)
		dc := r.m.CoordAxis(dst, d)
		switch {
		case cc == dc:
			continue
		case r.m.WrapDim(d):
			return append(buf, datelineHop(r.m, cur, d, cc, dc))
		case dc > cc:
			return append(buf, Hop{Node: r.m.Step(cur, d, +1), Ch: r.m.DirChannel(cur, d, 0)})
		}
		return append(buf, Hop{Node: r.m.Step(cur, d, -1), Ch: r.m.DirChannel(cur, d, 1)})
	}
	return buf
}
