package routing_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/routing"
	"repro/internal/topology"
)

// Route-validity property suite: for every selector on random mesh
// and torus shapes, every produced route (a) reaches its destination,
// (b) is minimal — every offered candidate is one hop closer under
// the topology's wrap-aware Distance, so wrap dimensions take the
// shorter modular arc, (c) never revisits a channel, and (d) respects
// its structural rules (west hops first for west-first; wrap
// dimensions before residual dimensions for the torus models). The
// route is walked through AppendNextChannels, the form the network
// runs, and (e) every candidate's channel must be the one from cur to
// its node, with NextHops returning the same nodes in the same order.

// selectorsFor returns every selector constructible on m, keyed by a
// short label.
func selectorsFor(m *topology.Mesh) map[string]routing.Selector {
	sels := map[string]routing.Selector{
		"dor":          routing.NewDOR(m),
		"dateline-dor": routing.NewDatelineDOR(m),
	}
	if m.Wrap() {
		sels["west-first-torus"] = routing.NewTorusWestFirst(m)
		if m.NDims() >= 2 {
			sels["odd-even-torus"] = routing.NewTorusOddEven(m)
		}
	} else {
		sels["west-first"] = routing.NewWestFirst(m)
		if m.NDims() >= 2 {
			sels["odd-even"] = routing.NewOddEven(m)
		}
	}
	return sels
}

func randomTopo(r *rand.Rand) *topology.Mesh {
	dims := make([]int, 1+r.Intn(3))
	for i := range dims {
		dims[i] = 2 + r.Intn(4)
	}
	if r.Intn(2) == 0 {
		return topology.NewTorus(dims...)
	}
	return topology.NewMesh(dims...)
}

// hopDim returns the dimension the hop cur→next moves along.
func hopDim(t *testing.T, m *topology.Mesh, cur, next topology.NodeID) int {
	t.Helper()
	for d := 0; d < m.NDims(); d++ {
		if m.CoordAxis(cur, d) != m.CoordAxis(next, d) {
			return d
		}
	}
	t.Fatalf("hop %d -> %d moves along no dimension", cur, next)
	return -1
}

// checkRoute follows the selector's first candidates from src to dst,
// validating every offered candidate along the way.
func checkRoute(t *testing.T, m *topology.Mesh, label string, sel routing.Selector, src, dst topology.NodeID) {
	t.Helper()
	walk, ok := sel.(routing.ChannelAppender)
	if !ok {
		t.Fatalf("%s: not a ChannelAppender", label)
	}
	var hops []routing.Hop
	cur := src
	dist := m.Distance(src, dst)
	usedCh := make(map[topology.ChannelID]bool)
	sawWest := false     // west-first: a non-west hop happened
	sawResidual := false // torus models: a non-wrap-dim hop happened
	for steps := 0; cur != dst; steps++ {
		if steps > dist {
			t.Fatalf("%s on %s: route %d->%d exceeded minimal length %d", label, m.Name(), src, dst, dist)
		}
		hops = walk.AppendNextChannels(hops[:0], cur, dst)
		if len(hops) == 0 {
			t.Fatalf("%s on %s: stalled at %d short of %d", label, m.Name(), cur, dst)
		}
		nodes := sel.NextHops(cur, dst)
		if len(nodes) != len(hops) {
			t.Fatalf("%s on %s: NextHops(%d, %d) = %v, walk offers %v", label, m.Name(), cur, dst, nodes, hops)
		}
		for i, hop := range hops {
			cand := hop.Node
			if nodes[i] != cand {
				t.Fatalf("%s on %s: NextHops(%d, %d) = %v, walk offers %v", label, m.Name(), cur, dst, nodes, hops)
			}
			want := m.Channel(cur, cand)
			if want == topology.InvalidChannel {
				t.Fatalf("%s on %s: non-adjacent candidate %d -> %d", label, m.Name(), cur, cand)
			}
			if hop.Ch != want {
				t.Fatalf("%s on %s: candidate %d -> %d carries channel %d, want %d", label, m.Name(), cur, cand, hop.Ch, want)
			}
			if got, want := m.Distance(cand, dst), m.Distance(cur, dst)-1; got != want {
				t.Fatalf("%s on %s: candidate %d -> %d not minimal toward %d (distance %d, want %d)",
					label, m.Name(), cur, cand, dst, got, want)
			}
		}
		next, ch := hops[0].Node, hops[0].Ch
		if usedCh[ch] {
			t.Fatalf("%s on %s: route %d->%d revisits channel %d", label, m.Name(), src, dst, ch)
		}
		usedCh[ch] = true

		d := hopDim(t, m, cur, next)
		switch label {
		case "west-first":
			west := d == 0 && m.CoordAxis(next, 0) == m.CoordAxis(cur, 0)-1
			if west && sawWest {
				t.Fatalf("%s on %s: west hop at %d after a non-west hop (route %d->%d)", label, m.Name(), cur, src, dst)
			}
			if !west {
				sawWest = true
			}
		case "west-first-torus", "odd-even-torus":
			if m.WrapDim(d) && sawResidual {
				t.Fatalf("%s on %s: wrap-dim hop at %d after a residual hop (route %d->%d)", label, m.Name(), cur, src, dst)
			}
			if !m.WrapDim(d) {
				sawResidual = true
			}
		}
		cur = next
	}
	if len(usedCh) != dist {
		t.Fatalf("%s on %s: route %d->%d took %d hops, want minimal %d", label, m.Name(), src, dst, len(usedCh), dist)
	}
}

func TestRouteValidityQuick(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomTopo(r)
		for label, sel := range selectorsFor(m) {
			for trial := 0; trial < 8; trial++ {
				src := topology.NodeID(r.Intn(m.Nodes()))
				dst := topology.NodeID(r.Intn(m.Nodes()))
				if src == dst {
					continue
				}
				checkRoute(t, m, label, sel, src, dst)
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestDatelineDORWrapPathGoldens pins the 4x4 torus's wraparound
// routes and their VC classes hop by hop: the shorter modular arc is
// taken (ties positive), the hop that crosses the wrap edge and every
// hop before it ride class 0, and the route switches to class 1 once
// the crossing is behind it.
func TestDatelineDORWrapPathGoldens(t *testing.T) {
	m := topology.NewTorus(4, 4)
	sel := routing.NewDatelineDOR(m)
	id := func(x, y int) topology.NodeID { return m.ID(x, y) }
	cases := []struct {
		name     string
		src, dst topology.NodeID
		path     []topology.NodeID
		classes  []int // VC class per hop
	}{
		{"one-hop wrap east", id(3, 0), id(0, 0),
			[]topology.NodeID{id(3, 0), id(0, 0)}, []int{0}},
		{"one-hop wrap west", id(0, 0), id(3, 0),
			[]topology.NodeID{id(0, 0), id(3, 0)}, []int{0}},
		{"tie goes positive, no crossing", id(1, 1), id(3, 3),
			[]topology.NodeID{id(1, 1), id(2, 1), id(3, 1), id(3, 2), id(3, 3)},
			[]int{1, 1, 1, 1}},
		{"crossing then switch", id(3, 1), id(1, 1),
			[]topology.NodeID{id(3, 1), id(0, 1), id(1, 1)}, []int{0, 1}},
		{"pre-wrap hops stay class 0", id(2, 0), id(0, 0),
			[]topology.NodeID{id(2, 0), id(3, 0), id(0, 0)}, []int{0, 0}},
		{"both dims wrap", id(3, 3), id(0, 0),
			[]topology.NodeID{id(3, 3), id(0, 3), id(0, 0)}, []int{0, 0}},
		{"wrap west then plain north", id(0, 1), id(3, 2),
			[]topology.NodeID{id(0, 1), id(3, 1), id(3, 2)}, []int{0, 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := routing.Path(sel, m, tc.src, tc.dst)
			if len(got) != len(tc.path) {
				t.Fatalf("path %v, want %v", got, tc.path)
			}
			for i := range got {
				if got[i] != tc.path[i] {
					t.Fatalf("path %v, want %v", got, tc.path)
				}
			}
			for i := 0; i+1 < len(got); i++ {
				if c := sel.VCClass(got[i], got[i+1], tc.dst); c != tc.classes[i] {
					t.Errorf("hop %d (%d->%d): class %d, want %d", i, got[i], got[i+1], c, tc.classes[i])
				}
			}
		})
	}
}

// TestTurnModelPanicsShareTheCapabilityMessage pins the deduped
// topology-level rejection: the genuinely mesh-only entry points all
// refuse a torus with the same message shape.
func TestTurnModelPanicsShareTheCapabilityMessage(t *testing.T) {
	m := topology.NewTorus(4, 4)
	expectPanic := func(want string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if r == nil {
				t.Errorf("no panic, want %q", want)
				return
			}
			if msg, ok := r.(string); !ok || msg != want {
				t.Errorf("panic %v, want %q", r, want)
			}
		}()
		fn()
	}
	expectPanic("topology: the west-first turn model requires a mesh without wraparound links, got torus 4x4",
		func() { routing.NewWestFirst(m) })
	expectPanic("topology: the odd-even turn model requires a mesh without wraparound links, got torus 4x4",
		func() { routing.NewOddEven(m) })
}
