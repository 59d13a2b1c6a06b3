package routing

import (
	"repro/internal/topology"
)

// Torus-capable turn models. The mesh turn models' deadlock proofs
// break the moment a dimension carries wraparound links (the ring
// closes the very cycles the turn prohibitions cut), so the torus
// variants route wrap dimensions FIRST, deterministically, with
// minimal dateline steps — acyclic per ring under the dateline VC
// classes, ordered across rings by dimension index — and only then
// hand the residual non-wrap dimensions to the unchanged mesh turn
// model. Dependencies therefore flow wrap-subnetwork → mesh-
// subnetwork and never back, so the combined channel dependency
// graph stays acyclic; cdg.DeadlockFree verifies this mechanically
// for every shipped shape. On a fully wrapped torus no residual
// dimensions remain and both variants reduce to minimal dateline
// routing — exactly the "fall back to dateline routing along wrap
// dimensions" contract.

// torusTurnModel is the shared wrap-first scaffolding of the torus
// turn models.
type torusTurnModel struct {
	m    *topology.Mesh
	mesh ChannelAppender // the mesh turn model for the residual dimensions
}

// AppendNextChannels implements ChannelAppender: it corrects wrap
// dimensions in increasing order with one deterministic dateline
// step, then delegates to the mesh model (which sees every wrap
// dimension already aligned).
func (r *torusTurnModel) AppendNextChannels(buf []Hop, cur, dst topology.NodeID) []Hop {
	for d := 0; d < r.m.NDims(); d++ {
		if !r.m.WrapDim(d) {
			continue
		}
		cc, dc := r.m.CoordAxis(cur, d), r.m.CoordAxis(dst, d)
		if cc == dc {
			continue
		}
		return append(buf, datelineHop(r.m, cur, d, cc, dc))
	}
	return r.mesh.AppendNextChannels(buf, cur, dst)
}

// NextHops implements Selector.
func (r *torusTurnModel) NextHops(cur, dst topology.NodeID) []topology.NodeID {
	return nextNodes(r, cur, dst)
}

// VCClasses implements VCPolicy.
func (r *torusTurnModel) VCClasses() int { return 2 }

// VCClass implements VCPolicy.
func (r *torusTurnModel) VCClass(cur, next, dst topology.NodeID) int {
	return datelineClass(r.m, cur, next, dst)
}

// TorusWestFirst is the torus-capable west-first turn model: minimal
// dateline routing along wraparound dimensions, the ordinary
// west-first adaptive model on whatever dimensions have no wrap
// links. Deadlock-free with two or more virtual channels under its
// dateline VC classes.
type TorusWestFirst struct {
	torusTurnModel
}

// NewTorusWestFirst returns the torus-capable west-first routing
// function over m. It accepts any mesh; without wrap links it
// behaves exactly like NewWestFirst.
func NewTorusWestFirst(m *topology.Mesh) *TorusWestFirst {
	return &TorusWestFirst{torusTurnModel{m: m, mesh: &WestFirst{m: m}}}
}

// Name implements Selector.
func (r *TorusWestFirst) Name() string { return "west-first-torus" }

// TorusOddEven is the torus-capable odd-even turn model: minimal
// dateline routing along wraparound dimensions, Chiu's odd-even
// model on the residual mesh dimensions.
type TorusOddEven struct {
	torusTurnModel
}

// NewTorusOddEven returns the torus-capable odd-even routing function
// over m, which must have at least two dimensions.
func NewTorusOddEven(m *topology.Mesh) *TorusOddEven {
	if m.NDims() < 2 {
		panic("routing: odd-even needs at least two dimensions")
	}
	return &TorusOddEven{torusTurnModel{m: m, mesh: &OddEven{m: m}}}
}

// Name implements Selector.
func (r *TorusOddEven) Name() string { return "odd-even-torus" }

// WestFirstFor returns the west-first routing function appropriate
// for m: the mesh turn model on a mesh, the torus-capable variant on
// a torus. The engine, metrics and scenario layers route AB's
// adaptive sends through this, so one algorithm set runs unchanged on
// both substrates.
func WestFirstFor(m *topology.Mesh) Selector {
	if m.Wrap() {
		return NewTorusWestFirst(m)
	}
	return NewWestFirst(m)
}

// OddEvenFor returns the odd-even routing function appropriate for m.
func OddEvenFor(m *topology.Mesh) Selector {
	if m.Wrap() {
		return NewTorusOddEven(m)
	}
	return NewOddEven(m)
}

var (
	_ Selector        = (*TorusWestFirst)(nil)
	_ ChannelAppender = (*TorusWestFirst)(nil)
	_ VCPolicy        = (*TorusWestFirst)(nil)
	_ Selector        = (*TorusOddEven)(nil)
	_ ChannelAppender = (*TorusOddEven)(nil)
	_ VCPolicy        = (*TorusOddEven)(nil)
)
