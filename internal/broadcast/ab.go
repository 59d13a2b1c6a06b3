package broadcast

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/routing"
	"repro/internal/topology"
)

// AB is the Adaptive Broadcast of Al-Dubai, Ould-Khaoua & Mackenzie
// [27]: a plane-based coded-path broadcast over west-first turn-model
// adaptive routing that completes in three message-passing steps.
//
//	step 1  the source routes one worm to the nearest corner of its
//	        own XY plane and on to the opposite corner (control field
//	        10); when the concatenated journey would violate the turn
//	        model, the two corners are reached by two worms instead.
//	step 2  each informed corner relays along its Z column to the
//	        corresponding corners of every other plane (control 11).
//	step 3  in every plane, the two informed corners each flood their
//	        half of the plane with one coded-path worm.
//
// AB deliberately bounds the destinations per path (each worm covers
// at most half a plane), trading slightly longer third-step paths for
// the three-step schedule.
type AB struct{}

// NewAB returns the Adaptive Broadcast planner.
func NewAB() AB { return AB{} }

// Name implements Algorithm.
func (AB) Name() string { return "AB" }

// Ports implements Algorithm: AB runs on a one-port CPR router.
func (AB) Ports() int { return 1 }

// StepsFor returns AB's step count: three, independent of size.
func (AB) StepsFor(m *topology.Mesh) int { return 3 }

// Plan implements Algorithm. On a torus the plane recursion runs in
// the source's unwrap frame (see planThroughFrame); mesh plans are
// unchanged.
func (ab AB) Plan(m *topology.Mesh, src topology.NodeID) (*Plan, error) {
	if m.NDims() != 2 && m.NDims() != 3 {
		return nil, fmt.Errorf("broadcast: AB requires a 2D or 3D mesh, got %s", m.Name())
	}
	return planThroughFrame(m, src, ab.planMesh)
}

// planMesh is the unwrapped-mesh construction.
func (ab AB) planMesh(m *topology.Mesh, src topology.NodeID) (*Plan, error) {
	planes := 1
	if m.NDims() == 3 {
		planes = m.Dim(2)
	}
	// Up to two step-1 worms, four Z relays and two half-floods per
	// plane. The paths cover every node about once; an east-side
	// flood revisits its west leg, under one row per plane.
	b := newPlanBuilder(ab.Name(), src, ab.StepsFor(m), 2*planes+6, m.Nodes()+planes*m.Dim(0)+4)

	n0, n1 := m.NearestCornerInPlane(src, 0, 1)

	// Step 1: source to the plane's near and opposite corners.
	wf := routing.NewWestFirst(m)
	switch {
	case n0 == n1:
		// Degenerate 1xN or Nx1 plane: a single corner.
		if src != n0 {
			b.chain(1, src, true, n0)
		}
	case src == n0:
		b.chain(1, src, true, n1)
	case src == n1:
		b.chain(1, src, true, n0)
	case wf.SegmentLegal(src, n0, n1):
		b.chain(1, src, true, n0, n1).Path.Relays = 1 << 0 // n0 relays in step 2
	default:
		b.chain(1, src, true, n0)
		b.chain(1, src, true, n1)
	}

	// Step 2 (3D only): corners relay along Z to every other plane.
	if m.NDims() == 3 && m.Dim(2) > 1 {
		sz := m.CoordAxis(src, 2)
		corners := []topology.NodeID{n0, n1}
		if n1 == n0 {
			corners = corners[:1]
		}
		for _, corner := range corners {
			if sz < m.Dim(2)-1 {
				b.arena = core.AppendLine(b.arena, m, corner, 2, m.Dim(2)-1)
				b.send(2, corner, true)
			}
			if sz > 0 {
				b.arena = core.AppendLine(b.arena, m, corner, 2, 0)
				b.send(2, corner, true)
			}
		}
	}

	// Step 3: in every plane, each corner floods its half.
	for z := 0; z < planes; z++ {
		cz0 := ab.inPlane(m, n0, z)
		cz1 := ab.inPlane(m, n1, z)
		ab.halfFlood(b, m, cz0)
		if cz1 != cz0 {
			ab.halfFlood(b, m, cz1)
		}
	}
	return b.finish(), nil
}

// inPlane returns the node with corner's XY coordinates in plane z.
func (AB) inPlane(m *topology.Mesh, corner topology.NodeID, z int) topology.NodeID {
	if m.NDims() == 2 {
		return corner
	}
	return m.ID(m.CoordAxis(corner, 0), m.CoordAxis(corner, 1), z)
}

// halfFlood plans the step-3 worm from a plane corner over its half
// of the plane (split along dimension 0, the corner's own side; the
// low side takes the ceil share). The paths are built to conform to
// the west-first turn model so concurrent broadcasts and west-first
// unicast traffic cannot form cyclic channel waits:
//
//   - the west-side corner snakes with ±y sweeps and +x slow steps
//     (no west move at all);
//   - the east-side corner first runs a pure-west leg along its own
//     row to the half's west edge, then snakes back east the same way
//     (all west hops precede every other hop).
func (AB) halfFlood(b *planBuilder, m *topology.Mesh, corner topology.NodeID) {
	X, Y := m.Dim(0), m.Dim(1)
	split := (X + 1) / 2 // low half is [0, split), high half [split, X)
	cx := m.CoordAxis(corner, 0)
	lo, hi := 0, split-1
	if cx >= split {
		lo, hi = split, X-1
	}
	if lo > hi {
		return
	}
	if lo == hi && Y == 1 {
		return // the half contains only the corner itself
	}

	switch {
	case Y == 1:
		stop := lo
		if cx == lo {
			stop = hi
		}
		b.arena = core.AppendLine(b.arena, m, corner, 0, stop)
	case cx == lo:
		// West-side corner: ±y sweeps, +x steps — west-first legal.
		b.arena = core.AppendSnake(b.arena, m, corner, 1, 0, 0, Y-1, lo, hi)
	default:
		// East-side corner: west leg to the half's west edge, then a
		// snake of ±y sweeps and +x steps, skipping the corner node.
		b.arena = core.AppendLine(b.arena, m, corner, 0, lo)
		edge := b.arena[len(b.arena)-1]
		from := len(b.arena)
		b.arena = core.AppendSnake(b.arena, m, edge, 1, 0, 0, Y-1, lo, hi)
		// The worm's own source needs no delivery.
		if i := slices.Index(b.arena[from:], corner); i >= 0 {
			b.arena = slices.Delete(b.arena, from+i, from+i+1)
		}
	}
	b.send(3, corner, true)
}
