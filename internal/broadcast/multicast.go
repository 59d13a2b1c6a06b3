package broadcast

import (
	"fmt"
	"sort"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Multicast is the paper's §4 future-work extension: delivery of one
// message to an arbitrary destination subset using the same
// coded-path machinery as DB and AB. It implements dual-path
// multicast in the style of Lin & Ni [10]: nodes are ranked along a
// Hamiltonian snake through the mesh; destinations ranked above the
// source are visited by one worm in ascending rank order, the rest by
// a second worm in descending order. MaxPerPath bounds destinations
// per worm (AB's "limit the destinations of each path" strategy),
// splitting overloaded paths into chunks that serialise on the
// source's injection port.
type Multicast struct {
	// MaxPerPath bounds the destinations carried by one worm;
	// 0 means unbounded.
	MaxPerPath int
}

// NewMulticast returns a dual-path multicast planner.
func NewMulticast(maxPerPath int) Multicast { return Multicast{MaxPerPath: maxPerPath} }

// Name identifies the planner.
func (Multicast) Name() string { return "MC" }

// Ports returns the one-port CPR router assumption.
func (Multicast) Ports() int { return 1 }

// SnakeRank returns node id's position along the Hamiltonian snake
// through the mesh: the highest dimension is swept slice by slice and
// each slice's sub-snake is traversed forward or backward so that
// consecutive ranks are always mesh-adjacent (a reflected mixed-radix
// code). The reflection state toggles on the parity of each physical
// coordinate: entering an odd-indexed slice reverses the traversal of
// everything below it.
func SnakeRank(m *topology.Mesh, id topology.NodeID) int {
	rank := 0
	flipped := false
	for d := m.NDims() - 1; d >= 0; d-- {
		k := m.Dim(d)
		digit := m.CoordAxis(id, d)
		eff := digit
		if flipped {
			eff = k - 1 - digit
		}
		rank = rank*k + eff
		if digit%2 == 1 {
			flipped = !flipped
		}
	}
	return rank
}

// NodeAtRank inverts SnakeRank.
func NodeAtRank(m *topology.Mesh, rank int) topology.NodeID {
	if rank < 0 || rank >= m.Nodes() {
		panic(fmt.Sprintf("broadcast: snake rank %d out of range [0,%d)", rank, m.Nodes()))
	}
	coord := make([]int, m.NDims())
	divisors := make([]int, m.NDims())
	total := m.Nodes()
	for d := m.NDims() - 1; d >= 0; d-- {
		total /= m.Dim(d)
		divisors[d] = total
	}
	flipped := false
	rest := rank
	for d := m.NDims() - 1; d >= 0; d-- {
		eff := rest / divisors[d]
		rest %= divisors[d]
		digit := eff
		if flipped {
			digit = m.Dim(d) - 1 - eff
		}
		coord[d] = digit
		if digit%2 == 1 {
			flipped = !flipped
		}
	}
	return m.ID(coord...)
}

// PlanMulticast returns the dual-path schedule delivering to dests
// (duplicates and the source itself are ignored). The returned plan
// validates under a relaxed coverage rule — use ValidateMulticast.
// On a torus the snake ranking runs in the canonical unwrap frame
// (see planThroughFrame) and the worms' legs between ranked stops
// ride the wraparound links; mesh plans are unchanged.
func (mc Multicast) PlanMulticast(m *topology.Mesh, src topology.NodeID, dests []topology.NodeID) (*Plan, error) {
	if !m.Wrap() {
		return mc.planMesh(m, src, dests)
	}
	f := topology.NewFrame(m, 0)
	vdests := make([]topology.NodeID, len(dests))
	for i, d := range dests {
		if int(d) < 0 || int(d) >= m.Nodes() {
			return nil, fmt.Errorf("broadcast: multicast destination %d out of range", d)
		}
		vdests[i] = f.ToVirtual(d)
	}
	p, err := mc.planMesh(f.Virtual(), f.ToVirtual(src), vdests)
	if err != nil {
		return nil, err
	}
	return remapPlan(p, f), nil
}

// planMesh is the unwrapped-mesh construction.
func (mc Multicast) planMesh(m *topology.Mesh, src topology.NodeID, dests []topology.NodeID) (*Plan, error) {
	seen := make(map[topology.NodeID]bool, len(dests))
	var up, down []topology.NodeID
	srcRank := SnakeRank(m, src)
	for _, d := range dests {
		if d == src || seen[d] {
			continue
		}
		if int(d) < 0 || int(d) >= m.Nodes() {
			return nil, fmt.Errorf("broadcast: multicast destination %d out of range", d)
		}
		seen[d] = true
		if SnakeRank(m, d) > srcRank {
			up = append(up, d)
		} else {
			down = append(down, d)
		}
	}
	sort.Slice(up, func(i, j int) bool { return SnakeRank(m, up[i]) < SnakeRank(m, up[j]) })
	sort.Slice(down, func(i, j int) bool { return SnakeRank(m, down[i]) > SnakeRank(m, down[j]) })

	limit := mc.MaxPerPath
	if limit <= 0 {
		limit = max(len(up), len(down), 1)
	}
	chunks := (len(up)+limit-1)/limit + (len(down)+limit-1)/limit
	b := newPlanBuilder(mc.Name(), src, 1, chunks, len(up)+len(down))
	for _, ordered := range [2][]topology.NodeID{up, down} {
		for len(ordered) > 0 {
			n := min(limit, len(ordered))
			b.chain(1, src, false, ordered[:n]...)
			ordered = ordered[n:]
		}
	}
	return b.finish(), nil
}

// RunMulticast plans and executes one multicast on an idle network
// over m and returns each destination's arrival time (µs from start).
func RunMulticast(m *topology.Mesh, mc Multicast, src topology.NodeID, dests []topology.NodeID, cfg network.Config, length int) (map[topology.NodeID]float64, error) {
	plan, err := mc.PlanMulticast(m, src, dests)
	if err != nil {
		return nil, err
	}
	if err := ValidateMulticast(m, plan, dests); err != nil {
		return nil, err
	}
	s := sim.New()
	net, err := network.New(s, m, cfg)
	if err != nil {
		return nil, err
	}
	r, err := Execute(net, plan, Options{Length: length, Tag: "multicast"})
	if err != nil {
		return nil, err
	}
	s.Run()
	out := make(map[topology.NodeID]float64, len(dests))
	for _, d := range dests {
		if d == src {
			continue
		}
		at := r.Arrival[d]
		if at < 0 {
			return nil, fmt.Errorf("broadcast: multicast destination %d never received (stuck: %v)", d, net.Stuck())
		}
		out[d] = at
	}
	return out, nil
}

// ValidateMulticast checks that the plan delivers to exactly the
// requested destination set.
func ValidateMulticast(m *topology.Mesh, p *Plan, dests []topology.NodeID) error {
	want := make(map[topology.NodeID]bool)
	for _, d := range dests {
		if d != p.Source {
			want[d] = true
		}
	}
	got := make(map[topology.NodeID]bool)
	for _, s := range p.Sends {
		if err := s.Path.Validate(m); err != nil {
			return err
		}
		if s.Path.Source != p.Source {
			return fmt.Errorf("broadcast: multicast worm from %d, want source %d", s.Path.Source, p.Source)
		}
		for _, w := range s.Path.Waypoints {
			got[w] = true
		}
	}
	for d := range want {
		if !got[d] {
			return fmt.Errorf("broadcast: multicast misses destination %d", d)
		}
	}
	for d := range got {
		if !want[d] {
			return fmt.Errorf("broadcast: multicast visits non-destination %d", d)
		}
	}
	return nil
}
