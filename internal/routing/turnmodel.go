package routing

import (
	"fmt"

	"repro/internal/topology"
)

// WestFirst implements the west-first turn model (Glass & Ni) the AB
// algorithm runs on: within the XY plane a message performs all its
// west (-x) hops first and afterwards routes fully adaptively among
// east and north/south — exactly the prohibition of the (south,west)
// and (north,west) turns the paper cites. Dimensions beyond the
// second are corrected last, deterministically, after XY alignment.
//
// The 3D extension keeps the turn-model proof intact: no worm ever
// turns into a westward channel (the 2D argument), and Z channels are
// a sink layer — entered from X/Y but never left back into them — so
// the combined channel dependency graph stays acyclic. This matters
// beyond unicast: AB's coded-path snakes take (east,south) and
// (east,north) turns that a stricter "negative-first" rule would
// forbid, and mixing the two turn sets is what produces cyclic waits.
type WestFirst struct {
	m *topology.Mesh
}

// NewWestFirst returns the west-first/negative-first adaptive routing
// function over m. It panics on a wrapped mesh: the turn model's
// deadlock-freedom argument requires a mesh without wraparound links
// (use NewTorusWestFirst or WestFirstFor on a torus).
func NewWestFirst(m *topology.Mesh) *WestFirst {
	if err := m.MeshOnly("the west-first turn model"); err != nil {
		panic(err.Error())
	}
	return &WestFirst{m: m}
}

// Name implements Selector.
func (r *WestFirst) Name() string { return "west-first" }

// NextHops implements Selector. West hops come first; then east and
// north/south adaptively (largest remaining offset preferred); then
// the remaining dimensions in order.
func (r *WestFirst) NextHops(cur, dst topology.NodeID) []topology.NodeID {
	return nextNodes(r, cur, dst)
}

// AppendNextChannels implements ChannelAppender, channels resolved
// in-walk. Phase 2 offers at most two candidates (east and one
// vertical), so the "largest remaining offset first, stable on ties"
// preference of the original sort is a single comparison with east
// winning ties.
func (r *WestFirst) AppendNextChannels(buf []Hop, cur, dst topology.NodeID) []Hop {
	// Phase 1: all west hops.
	cx, dx := r.m.CoordAxis(cur, 0), r.m.CoordAxis(dst, 0)
	if dx < cx {
		return append(buf, Hop{Node: r.m.Step(cur, 0, -1), Ch: r.m.DirChannel(cur, 0, 1)})
	}
	// Phase 2: adaptive among east and the second dimension.
	var east, vert Hop
	eastOff, vertOff := 0, 0
	if dx > cx {
		east = Hop{Node: r.m.Step(cur, 0, +1), Ch: r.m.DirChannel(cur, 0, 0)}
		eastOff = dx - cx
	}
	if r.m.NDims() >= 2 {
		cy, dy := r.m.CoordAxis(cur, 1), r.m.CoordAxis(dst, 1)
		switch {
		case dy > cy:
			vert = Hop{Node: r.m.Step(cur, 1, +1), Ch: r.m.DirChannel(cur, 1, 0)}
			vertOff = dy - cy
		case dy < cy:
			vert = Hop{Node: r.m.Step(cur, 1, -1), Ch: r.m.DirChannel(cur, 1, 1)}
			vertOff = cy - dy
		}
	}
	switch {
	case eastOff > 0 && vertOff > 0:
		if vertOff > eastOff {
			return append(buf, vert, east)
		}
		return append(buf, east, vert)
	case eastOff > 0:
		return append(buf, east)
	case vertOff > 0:
		return append(buf, vert)
	}
	// Phase 3: remaining dimensions, dimension-ordered.
	for d := 2; d < r.m.NDims(); d++ {
		cc, dc := r.m.CoordAxis(cur, d), r.m.CoordAxis(dst, d)
		switch {
		case dc > cc:
			return append(buf, Hop{Node: r.m.Step(cur, d, +1), Ch: r.m.DirChannel(cur, d, 0)})
		case dc < cc:
			return append(buf, Hop{Node: r.m.Step(cur, d, -1), Ch: r.m.DirChannel(cur, d, 1)})
		}
	}
	return buf
}

// SegmentLegal reports whether a worm travelling from a to b and then
// from b to c can be routed as a single west-first worm: the
// concatenated journey must still be "all negative hops before all
// positive hops". The AB algorithm uses this to decide whether its
// first step can visit the near corner and the opposite corner with
// one coded-path message (control field 10) or needs two messages.
func (r *WestFirst) SegmentLegal(a, b, c topology.NodeID) bool {
	// Segment a->b may order hops freely, as may b->c; a single worm
	// is legal iff a->b needs no positive hop or b->c needs no
	// negative hop is too weak: the safe sufficient condition used
	// here is that a->b is all-negative and b->c is all-positive.
	for d := 0; d < r.m.NDims(); d++ {
		if r.m.CoordAxis(b, d) > r.m.CoordAxis(a, d) {
			return false
		}
		if r.m.CoordAxis(c, d) < r.m.CoordAxis(b, d) {
			return false
		}
	}
	return true
}

// OddEven implements Chiu's odd-even turn model in the first two
// dimensions of a mesh (remaining dimensions, if any, are corrected
// first, dimension-ordered, which preserves deadlock freedom: the
// z-subnetwork is acyclic and feeds the 2D odd-even subnetwork).
// Rules (columns are x values): an east-north or east-south turn is
// forbidden at even columns; a north-west or south-west turn is
// forbidden at odd columns. The package offers it as the alternative
// adaptive substrate the paper mentions ([7]) for the AB algorithm.
type OddEven struct {
	m *topology.Mesh
}

// NewOddEven returns odd-even adaptive routing over m, which must have
// at least two dimensions and no wraparound (use NewTorusOddEven or
// OddEvenFor on a torus).
func NewOddEven(m *topology.Mesh) *OddEven {
	if m.NDims() < 2 {
		panic("routing: odd-even needs at least two dimensions")
	}
	if err := m.MeshOnly("the odd-even turn model"); err != nil {
		panic(err.Error())
	}
	return &OddEven{m: m}
}

// Name implements Selector.
func (r *OddEven) Name() string { return "odd-even" }

// NextHops implements Selector.
func (r *OddEven) NextHops(cur, dst topology.NodeID) []topology.NodeID {
	return nextNodes(r, cur, dst)
}

// AppendNextChannels implements ChannelAppender, channels resolved
// in-walk.
func (r *OddEven) AppendNextChannels(buf []Hop, cur, dst topology.NodeID) []Hop {
	// Correct dimensions >= 2 first (dimension-ordered).
	for d := r.m.NDims() - 1; d >= 2; d-- {
		cc, dc := r.m.CoordAxis(cur, d), r.m.CoordAxis(dst, d)
		if cc == dc {
			continue
		}
		if dc > cc {
			return append(buf, Hop{Node: r.m.Step(cur, d, +1), Ch: r.m.DirChannel(cur, d, 0)})
		}
		return append(buf, Hop{Node: r.m.Step(cur, d, -1), Ch: r.m.DirChannel(cur, d, 1)})
	}

	cx, cy := r.m.CoordAxis(cur, 0), r.m.CoordAxis(cur, 1)
	dx, dy := r.m.CoordAxis(dst, 0), r.m.CoordAxis(dst, 1)
	ex, ey := dx-cx, dy-cy
	if ex == 0 && ey == 0 {
		return buf
	}

	n := len(buf)
	if ex > 0 {
		// Heading east. EN/ES turns are forbidden at even columns, so
		// vertical moves are offered only at odd columns, and a packet
		// that still needs vertical correction must not step into an
		// even destination column (it could never legally turn there).
		mustTurnHere := ey != 0 && cx+1 == dx && dx%2 == 0
		if !mustTurnHere {
			buf = append(buf, Hop{Node: r.m.Step(cur, 0, +1), Ch: r.m.DirChannel(cur, 0, 0)})
		}
		if ey != 0 && cx%2 == 1 {
			buf = append(buf, r.vhop(cur, ey))
		}
	} else if ex < 0 {
		// Heading west: NW/SW turns are forbidden at odd columns, so
		// go vertical only at even columns; west moves always allowed.
		if ey != 0 && cx%2 == 0 {
			buf = append(buf, r.vhop(cur, ey))
		}
		buf = append(buf, Hop{Node: r.m.Step(cur, 0, -1), Ch: r.m.DirChannel(cur, 0, 1)})
	} else {
		// Aligned in x: finish the column.
		buf = append(buf, r.vhop(cur, ey))
	}
	if len(buf) == n {
		panic(fmt.Sprintf("routing: odd-even stalled at %d toward %d", cur, dst))
	}
	return buf
}

func (r *OddEven) vhop(cur topology.NodeID, ey int) Hop {
	if ey > 0 {
		return Hop{Node: r.m.Step(cur, 1, +1), Ch: r.m.DirChannel(cur, 1, 0)}
	}
	return Hop{Node: r.m.Step(cur, 1, -1), Ch: r.m.DirChannel(cur, 1, 1)}
}

var (
	_ Selector        = (*DOR)(nil)
	_ Selector        = (*WestFirst)(nil)
	_ Selector        = (*OddEven)(nil)
	_ ChannelAppender = (*DOR)(nil)
	_ ChannelAppender = (*WestFirst)(nil)
	_ ChannelAppender = (*OddEven)(nil)
	_ ChannelAppender = (*DatelineDOR)(nil)
)
