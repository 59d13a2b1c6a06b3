package broadcast

import (
	"repro/internal/topology"
)

// Wraparound support for the coded-path planners. The mesh recursions
// of DB, AB and the dual-path multicast partition a rectangle into
// corners, faces and halves — notions a torus does not have until a
// coordinate frame is fixed. planThroughFrame fixes one: the CANONICAL
// unwrap frame anchored at node zero (topology.Frame), in which the
// torus reads as an ordinary mesh and every source sees the SAME
// corner geometry.
//
// The anchor is deliberately shared by all sources rather than
// per-source. A per-source frame (source at the zero corner of its
// own unwrapping) was evaluated first: it shortens a single
// broadcast's corner legs, but concurrent broadcasts then flood the
// same rings with translated — mixed-orientation — coded paths, and
// their long channel holds close cycles the dateline virtual channels
// cannot cut (the dateline argument governs minimal unicast routes,
// not waypoint-to-waypoint snakes). Contended DB/AB studies on small
// tori deadlocked within a few overlapping broadcasts. This is the
// torus incarnation of the design rule already recorded at DB's
// anchor selection: concurrent broadcasts must share one coded-path
// orientation per face. With the canonical frame the snake worms are
// byte-identical to the mesh planner's output, so the mesh proof
// carries over, while the point-to-point legs between them (corner
// ChainPaths, RD/EDN unicasts) still ride the wraparound links via
// minimal dateline routing.
//
// On a plain mesh the frame is the identity and the planner runs on m
// itself: mesh plans are bit-for-bit what they were before tori were
// supported.

// planThroughFrame runs plan in the canonical unwrap frame of m and
// maps the result back to physical node IDs.
func planThroughFrame(m *topology.Mesh, src topology.NodeID,
	plan func(m *topology.Mesh, src topology.NodeID) (*Plan, error)) (*Plan, error) {

	if !m.Wrap() {
		return plan(m, src)
	}
	f := topology.NewFrame(m, 0)
	p, err := plan(f.Virtual(), f.ToVirtual(src))
	if err != nil {
		return nil, err
	}
	return remapPlan(p, f), nil
}

// remapPlan translates a virtual-frame plan onto the physical torus,
// in place: the waypoints are rewritten inside the plan's own arena.
// When the frame is the identity (the canonical anchor) the plan is
// returned untouched; the general path keeps the machinery honest for
// non-zero anchors used in tests.
func remapPlan(p *Plan, f *topology.Frame) *Plan {
	if f.Identity() {
		return p
	}
	p.Source = f.ToPhysical(p.Source)
	for i := range p.Sends {
		path := &p.Sends[i].Path
		path.Source = f.ToPhysical(path.Source)
		for j, w := range path.Waypoints {
			path.Waypoints[j] = f.ToPhysical(w)
		}
	}
	return p
}
