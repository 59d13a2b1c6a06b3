package broadcast

import (
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestSnakeRankIsHamiltonian: consecutive ranks must be mesh-adjacent
// (distance 1) — the property dual-path multicast relies on.
func TestSnakeRankIsHamiltonian(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {5, 3}, {4, 3, 2}, {3, 3, 3}, {2, 2, 2, 2}} {
		m := topology.NewMesh(dims...)
		prev := NodeAtRank(m, 0)
		for r := 1; r < m.Nodes(); r++ {
			cur := NodeAtRank(m, r)
			if m.Distance(prev, cur) != 1 {
				t.Fatalf("%s: ranks %d,%d map to non-adjacent nodes %v,%v",
					m.Name(), r-1, r, m.Coord(prev), m.Coord(cur))
			}
			prev = cur
		}
	}
}

// TestSnakeRankRoundTrip: NodeAtRank inverts SnakeRank and ranks form
// a permutation of [0, N).
func TestSnakeRankRoundTrip(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {5, 3, 2}, {3, 4, 5}} {
		m := topology.NewMesh(dims...)
		seen := make([]bool, m.Nodes())
		for id := 0; id < m.Nodes(); id++ {
			r := SnakeRank(m, topology.NodeID(id))
			if r < 0 || r >= m.Nodes() {
				t.Fatalf("rank %d out of range", r)
			}
			if seen[r] {
				t.Fatalf("rank %d duplicated", r)
			}
			seen[r] = true
			if NodeAtRank(m, r) != topology.NodeID(id) {
				t.Fatalf("round trip failed for node %d", id)
			}
		}
	}
}

// TestMulticastCoversExactlyDestinations property-checks arbitrary
// destination subsets.
func TestMulticastCoversExactlyDestinations(t *testing.T) {
	m := topology.NewMesh(6, 5, 4)
	rng := sim.NewRNG(3, 41)
	f := func(n uint8, maxPer uint8) bool {
		count := int(n%32) + 1
		dests := make([]topology.NodeID, count)
		for i := range dests {
			dests[i] = topology.NodeID(rng.Intn(m.Nodes()))
		}
		src := topology.NodeID(rng.Intn(m.Nodes()))
		mc := NewMulticast(int(maxPer % 8)) // 0..7, 0 = unbounded
		plan, err := mc.PlanMulticast(m, src, dests)
		if err != nil {
			return false
		}
		return ValidateMulticast(m, plan, dests) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestMulticastDualPathOrdering: each worm's waypoints must have
// monotone snake ranks (ascending for the up worm, descending down).
func TestMulticastDualPathOrdering(t *testing.T) {
	m := topology.NewMesh(8, 8)
	src := m.ID(4, 4)
	dests := []topology.NodeID{m.ID(0, 0), m.ID(7, 7), m.ID(2, 5), m.ID(6, 1), m.ID(4, 5)}
	plan, err := NewMulticast(0).PlanMulticast(m, src, dests)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Sends) != 2 {
		t.Fatalf("sends = %d, want 2 (dual path)", len(plan.Sends))
	}
	srcRank := SnakeRank(m, src)
	for _, s := range plan.Sends {
		ranks := make([]int, len(s.Path.Waypoints))
		for i, w := range s.Path.Waypoints {
			ranks[i] = SnakeRank(m, w)
		}
		ascending := ranks[0] > srcRank
		for i := 1; i < len(ranks); i++ {
			if ascending && ranks[i] <= ranks[i-1] {
				t.Fatalf("up worm ranks not ascending: %v", ranks)
			}
			if !ascending && ranks[i] >= ranks[i-1] {
				t.Fatalf("down worm ranks not descending: %v", ranks)
			}
		}
	}
}

// TestMulticastMaxPerPathChunks: a path limit splits worms.
func TestMulticastMaxPerPathChunks(t *testing.T) {
	m := topology.NewMesh(8, 8)
	src := m.ID(0, 0)
	var dests []topology.NodeID
	for i := 1; i <= 10; i++ {
		dests = append(dests, topology.NodeID(i))
	}
	plan, err := NewMulticast(3).PlanMulticast(m, src, dests)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Sends) != 4 { // 10 destinations / 3 per path
		t.Fatalf("sends = %d, want 4", len(plan.Sends))
	}
	for _, s := range plan.Sends {
		if len(s.Path.Waypoints) > 3 {
			t.Fatalf("worm carries %d destinations, limit 3", len(s.Path.Waypoints))
		}
	}
}

// TestRunMulticastDelivers executes end to end on the simulator.
func TestRunMulticastDelivers(t *testing.T) {
	m := topology.NewMesh(6, 6, 3)
	src := m.ID(3, 3, 1)
	dests := []topology.NodeID{m.ID(0, 0, 0), m.ID(5, 5, 2), m.ID(1, 4, 2), m.ID(5, 0, 0), src}
	arrivals, events, err := RunMulticast(m, NewMulticast(2), src, dests, network.DefaultConfig(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != len(dests) || events == 0 {
		t.Fatalf("%d arrivals and %d events, want %d and some", len(arrivals), events, len(dests))
	}
	for i, at := range arrivals {
		if (dests[i] == src) != (at == 0) || at < 0 { // a listed source reads 0
			t.Errorf("destination %d arrival %v", dests[i], at)
		}
	}
}

// TestMulticastIgnoresDuplicatesAndSource.
func TestMulticastIgnoresDuplicatesAndSource(t *testing.T) {
	m := topology.NewMesh(4, 4)
	src := m.ID(1, 1)
	dests := []topology.NodeID{src, 3, 3, 3, 7}
	plan, err := NewMulticast(0).PlanMulticast(m, src, dests)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range plan.Sends {
		total += len(s.Path.Waypoints)
	}
	if total != 2 {
		t.Fatalf("waypoints = %d, want 2 (dedup + source skip)", total)
	}
}

// TestMulticastRejectsBadInput.
func TestMulticastRejectsBadInput(t *testing.T) {
	m := topology.NewMesh(4, 4)
	if _, err := NewMulticast(0).PlanMulticast(m, 0, []topology.NodeID{99}); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if _, err := NewMulticast(0).PlanMulticast(topology.NewTorus(4, 4), 0, []topology.NodeID{99}); err == nil {
		t.Error("out-of-range destination accepted on torus")
	}
}
