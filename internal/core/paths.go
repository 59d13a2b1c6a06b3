package core

import (
	"fmt"

	"repro/internal/topology"
)

// Path builders used by the DB and AB planners. Each appends a coded
// path's waypoints to dst and returns the extended slice, so a planner
// can lay every path of a plan into one shared waypoint arena.
// Consecutive waypoints are mesh-adjacent or joined by a straight run
// along one dimension, so the underlying routing function has no
// freedom to wander off the intended coded path. The builders walk the
// mesh hop by hop and never allocate beyond growing dst.

// AppendLine appends the waypoints of a coded path from src straight
// along dimension d to coordinate stop (inclusive), delivering at
// every node after src. stop may be on either side of src's
// coordinate.
func AppendLine(dst []topology.NodeID, m *topology.Mesh, src topology.NodeID, d, stop int) []topology.NodeID {
	start := m.CoordAxis(src, d)
	if stop == start {
		panic(fmt.Sprintf("core: line with zero extent at dim %d coord %d", d, start))
	}
	if stop < 0 || stop >= m.Dim(d) {
		panic(fmt.Sprintf("core: line stop %d out of range [0,%d) in dim %d", stop, m.Dim(d), d))
	}
	step := 1
	if stop < start {
		step = -1
	}
	for v, id := start, src; v != stop; {
		v += step
		id = m.Step(id, d, step)
		dst = append(dst, id)
	}
	return dst
}

// AppendSegment appends the waypoints of a coded path from src along
// dimension d covering coordinates lo to hi inclusive (excluding src's
// own position if it lies inside). The worm first travels to the
// nearer end of the segment; src must sit adjacent to or inside
// [lo, hi].
func AppendSegment(dst []topology.NodeID, m *topology.Mesh, src topology.NodeID, d, lo, hi int) []topology.NodeID {
	if lo > hi {
		panic(fmt.Sprintf("core: segment with lo %d > hi %d", lo, hi))
	}
	start := m.CoordAxis(src, d)
	switch {
	case start < lo:
		return AppendLine(dst, m, src, d, hi)
	case start > hi:
		return AppendLine(dst, m, src, d, lo)
	default:
		panic(fmt.Sprintf("core: segment source coordinate %d inside [%d,%d]; split the segment", start, lo, hi))
	}
}

// AppendSnake appends the waypoints of a boustrophedon coded path
// covering every node of the rectangle spanned by dimensions dFast
// and dSlow at the other coordinates of src, starting from src's own
// position, which must be a corner of that rectangle. The worm sweeps
// dFast, steps one hop along dSlow, sweeps dFast back, and so on — the
// face- and half-plane-covering paths of DB's and AB's final steps.
func AppendSnake(dst []topology.NodeID, m *topology.Mesh, src topology.NodeID, dFast, dSlow int, fastLo, fastHi, slowLo, slowHi int) []topology.NodeID {
	if fastLo > fastHi || slowLo > slowHi {
		panic("core: snake with empty rectangle")
	}
	if fastLo < 0 || fastHi >= m.Dim(dFast) || slowLo < 0 || slowHi >= m.Dim(dSlow) {
		panic(fmt.Sprintf("core: snake rectangle [%d,%d]x[%d,%d] leaves the mesh", fastLo, fastHi, slowLo, slowHi))
	}
	cf, cs := m.CoordAxis(src, dFast), m.CoordAxis(src, dSlow)
	if (cf != fastLo && cf != fastHi) || (cs != slowLo && cs != slowHi) {
		panic(fmt.Sprintf("core: snake source (%d,%d) is not a corner of [%d,%d]x[%d,%d]",
			cf, cs, fastLo, fastHi, slowLo, slowHi))
	}
	sStep := 1
	if cs == slowHi {
		sStep = -1
	}
	fStep := 1
	if cf == fastHi {
		fStep = -1
	}
	id := src
	for row := 0; row <= slowHi-slowLo; row++ {
		if row > 0 {
			id = m.Step(id, dSlow, sStep)
			dst = append(dst, id)
		}
		for col := 0; col < fastHi-fastLo; col++ {
			id = m.Step(id, dFast, fStep)
			dst = append(dst, id)
		}
		fStep = -fStep
	}
	return dst
}

// ChainPath returns a coded path visiting the given waypoints in
// order, in a private copy of the slice: the form hand-built plans
// use. Planners append their stops to the plan's waypoint arena
// instead.
func ChainPath(src topology.NodeID, waypoints ...topology.NodeID) CodedPath {
	return CodedPath{Source: src, Waypoints: append([]topology.NodeID(nil), waypoints...)}
}
