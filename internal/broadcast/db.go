package broadcast

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/topology"
)

// DB is the Deterministic Broadcast of Al-Dubai & Ould-Khaoua [28]:
// a coded-path (CPR) broadcast over deterministic routes that
// completes in four message-passing steps regardless of network size.
// The mesh is split into two partitioning sets anchored at a pair of
// opposite corners — the corner nearest the source and its opposite,
// so concurrent broadcasts from different sources spread over all
// corners. Each anchor corner floods its boundary face with one
// coded-path worm, and the two faces then sweep the interior from
// both sides in parallel, each sweep covering half of its line, so
// destinations receive the message in comparable, tightly clustered
// steps.
//
//	step 1  source -> nearest corner c0
//	step 2  source -> opposite corner c1; c0 -> snake over its x-face
//	step 3  c1 -> snake over its x-face; c0's face -> near-half rows
//	step 4  c1's face -> far-half rows
//
// DB is defined for 2D and 3D meshes (the paper's scope); the face
// "snake" degenerates to a line in 2D.
type DB struct{}

// NewDB returns the Deterministic Broadcast planner.
func NewDB() DB { return DB{} }

// Name implements Algorithm.
func (DB) Name() string { return "DB" }

// Ports implements Algorithm: DB runs on a one-port CPR router.
func (DB) Ports() int { return 1 }

// StepsFor returns DB's step count: four, independent of size.
func (DB) StepsFor(m *topology.Mesh) int { return 4 }

// Plan implements Algorithm. On a torus the partitioning runs in the
// source's unwrap frame (see planThroughFrame); mesh plans are
// unchanged.
func (db DB) Plan(m *topology.Mesh, src topology.NodeID) (*Plan, error) {
	if m.NDims() != 2 && m.NDims() != 3 {
		return nil, fmt.Errorf("broadcast: DB requires a 2D or 3D mesh, got %s", m.Name())
	}
	return planThroughFrame(m, src, db.planMesh)
}

// planMesh is the unwrapped-mesh construction.
func (db DB) planMesh(m *topology.Mesh, src topology.NodeID) (*Plan, error) {
	// Two corner sends, two face floods and one interior sweep per
	// face node; the paths cover every node about once.
	X := m.Dim(0)
	face := m.Nodes() / X
	b := newPlanBuilder(db.Name(), src, db.StepsFor(m), 2*face+4, m.Nodes()+2)

	c0, c1 := nearestAndOppositeCorner(m, src)

	// Corner delivery steps. The source's two corner sends occupy its
	// single port in consecutive steps; when the source already sits
	// on a corner the schedule compresses accordingly.
	c1Step := 0
	switch {
	case src == c0 && src == c1: // 1x…x1 mesh
	case src == c0:
		c1Step = 1
		b.chain(1, src, false, c1)
	case src == c1:
		b.chain(1, src, false, c0)
	default:
		c1Step = 2
		b.chain(1, src, false, c0)
		b.chain(2, src, false, c1)
	}

	// Face floods: each anchor corner covers its own x-face the step
	// after it is informed, or the step after its previous send when
	// the source itself sits on the corner (one injection port).
	c0FaceStep := 2
	c1FaceStep := c1Step + 1
	if src == c1 {
		c1FaceStep = 2 // after the source's step-1 corner send
	}
	b.arena = db.appendFace(b.arena, m, c0)
	b.send(c0FaceStep, c0, false)
	if X > 1 {
		b.arena = db.appendFace(b.arena, m, c1)
		b.send(c1FaceStep, c1, false)
	}

	// Interior sweeps: each face covers the interior half nearer to
	// it; the near face takes the ceil share.
	if X > 2 {
		interior := X - 2
		nearCount := interior/2 + interior%2
		x0 := m.CoordAxis(c0, 0) // 0 or X-1
		var nearLo, nearHi, farLo, farHi int
		if x0 == 0 {
			nearLo, nearHi = 1, nearCount
			farLo, farHi = nearCount+1, X-2
		} else {
			nearLo, nearHi = X-1-nearCount, X-2
			farLo, farHi = 1, X-2-nearCount
		}
		for _, from := range m.Plane(0, x0) {
			b.arena = core.AppendSegment(b.arena, m, from, 0, nearLo, nearHi)
			b.send(c0FaceStep+1, from, false)
		}
		if farLo <= farHi {
			x1 := m.CoordAxis(c1, 0)
			for _, from := range m.Plane(0, x1) {
				b.arena = core.AppendSegment(b.arena, m, from, 0, farLo, farHi)
				b.send(c1FaceStep+1, from, false)
			}
		}
	}
	return b.finish(), nil
}

// nearestAndOppositeCorner returns DB's anchor corners for src: the
// corner on the source's own x-side and the one on the far x-side.
// Both anchors sit at the canonical (0, …, 0) position of their face
// so that every face is flooded by a worm of one single orientation
// regardless of source — concurrent broadcasts then share identical
// coded paths per face, queueing FIFO instead of interleaving.
//
// A four-corner variant (source-relative in y as well, with turn-safe
// south-leg floods from far-y corners) was evaluated to spread the
// anchor-port load under heavy broadcast rates; mixed-orientation
// worms on a shared face interfere worse than the port relief helps
// (top-load latency rose ~20% on 8×8×8), so the two canonical anchors
// stay.
func nearestAndOppositeCorner(m *topology.Mesh, src topology.NodeID) (near, opp topology.NodeID) {
	// Node IDs along dimension 0 are consecutive, so the corner at
	// x = k-1 with every other coordinate 0 is node k-1.
	k := topology.NodeID(m.Dim(0))
	if m.CoordAxis(src, 0) <= int(k-1)/2 {
		return 0, k - 1
	}
	return k - 1, 0
}

// appendFace appends the waypoints of the coded path flooding the
// x-face containing corner, which sits at y = z = 0 (an anchor from
// nearestAndOppositeCorner); it appends nothing when the face holds
// only the corner itself. In 3D the face is swept with ±z columns
// advancing in +y slow steps.
func (DB) appendFace(dst []topology.NodeID, m *topology.Mesh, corner topology.NodeID) []topology.NodeID {
	if m.NDims() == 2 {
		if m.Dim(1) <= 1 {
			return dst
		}
		return core.AppendLine(dst, m, corner, 1, m.Dim(1)-1)
	}
	// 3D: (y, z) face.
	return core.AppendSnake(dst, m, corner, 2, 1, 0, m.Dim(2)-1, 0, m.Dim(1)-1)
}
