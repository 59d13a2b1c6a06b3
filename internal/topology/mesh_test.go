package topology

import (
	"testing"
	"testing/quick"
)

func TestMeshBasics(t *testing.T) {
	m := NewMesh(4, 3, 2)
	if m.Nodes() != 24 {
		t.Fatalf("nodes = %d", m.Nodes())
	}
	if m.NDims() != 3 || m.Dim(0) != 4 || m.Dim(1) != 3 || m.Dim(2) != 2 {
		t.Fatal("dims wrong")
	}
	if m.Name() != "mesh 4x3x2" {
		t.Fatalf("name = %q", m.Name())
	}
	if m.Wrap() {
		t.Fatal("mesh reports wraparound")
	}
}

func TestCoordRoundTrip(t *testing.T) {
	m := NewMesh(5, 7, 3)
	for id := 0; id < m.Nodes(); id++ {
		c := m.Coord(NodeID(id))
		if got := m.ID(c...); got != NodeID(id) {
			t.Fatalf("round trip %d -> %v -> %d", id, c, got)
		}
		for d := 0; d < 3; d++ {
			if m.CoordAxis(NodeID(id), d) != c[d] {
				t.Fatalf("CoordAxis(%d, %d) = %d, want %d", id, d, m.CoordAxis(NodeID(id), d), c[d])
			}
		}
	}
}

func TestDimZeroVariesFastest(t *testing.T) {
	m := NewMesh(4, 4, 4)
	if m.ID(1, 0, 0) != 1 {
		t.Errorf("ID(1,0,0) = %d", m.ID(1, 0, 0))
	}
	if m.ID(0, 1, 0) != 4 {
		t.Errorf("ID(0,1,0) = %d", m.ID(0, 1, 0))
	}
	if m.ID(0, 0, 1) != 16 {
		t.Errorf("ID(0,0,1) = %d", m.ID(0, 0, 1))
	}
}

func TestAdjacencyMesh(t *testing.T) {
	m := NewMesh(3, 3)
	center := m.ID(1, 1)
	if got := len(m.Adjacent(center)); got != 4 {
		t.Errorf("center degree = %d, want 4", got)
	}
	corner := m.ID(0, 0)
	if got := len(m.Adjacent(corner)); got != 2 {
		t.Errorf("corner degree = %d, want 2", got)
	}
	// Adjacency is symmetric.
	for id := 0; id < m.Nodes(); id++ {
		for _, nb := range m.Adjacent(NodeID(id)) {
			found := false
			for _, back := range m.Adjacent(nb) {
				if back == NodeID(id) {
					found = true
				}
			}
			if !found {
				t.Fatalf("adjacency not symmetric: %d -> %d", id, nb)
			}
		}
	}
}

func TestChannelBetweenNeighbors(t *testing.T) {
	m := NewMesh(4, 4, 4)
	seen := map[ChannelID]bool{}
	for id := 0; id < m.Nodes(); id++ {
		for _, nb := range m.Adjacent(NodeID(id)) {
			ch := m.Channel(NodeID(id), nb)
			if ch == InvalidChannel {
				t.Fatalf("no channel between neighbors %d and %d", id, nb)
			}
			if int(ch) >= m.ChannelSlots() {
				t.Fatalf("channel %d beyond slots %d", ch, m.ChannelSlots())
			}
			if seen[ch] {
				t.Fatalf("channel %d assigned twice", ch)
			}
			seen[ch] = true
			// Opposite direction must be a different channel.
			if back := m.Channel(nb, NodeID(id)); back == ch || back == InvalidChannel {
				t.Fatalf("reverse channel of %d->%d broken", id, nb)
			}
		}
	}
}

func TestChannelInvalidForNonNeighbors(t *testing.T) {
	m := NewMesh(4, 4)
	if m.Channel(m.ID(0, 0), m.ID(2, 0)) != InvalidChannel {
		t.Error("channel exists for distance-2 pair")
	}
	if m.Channel(m.ID(0, 0), m.ID(1, 1)) != InvalidChannel {
		t.Error("channel exists for diagonal pair")
	}
	if m.Channel(m.ID(0, 0), m.ID(0, 0)) != InvalidChannel {
		t.Error("channel exists for self")
	}
}

func TestDistanceAndDiameter(t *testing.T) {
	m := NewMesh(4, 4, 4)
	if d := m.Distance(m.ID(0, 0, 0), m.ID(3, 3, 3)); d != 9 {
		t.Errorf("distance = %d, want 9", d)
	}
	if m.Diameter() != 9 {
		t.Errorf("diameter = %d, want 9", m.Diameter())
	}
}

func TestTorusWraparound(t *testing.T) {
	tor := NewTorus(4, 4)
	a, b := tor.ID(0, 0), tor.ID(3, 0)
	if ch := tor.Channel(a, b); ch == InvalidChannel {
		t.Error("no wraparound channel on torus")
	}
	if d := tor.Distance(a, b); d != 1 {
		t.Errorf("torus wrap distance = %d, want 1", d)
	}
	if tor.Diameter() != 4 {
		t.Errorf("torus diameter = %d, want 4", tor.Diameter())
	}
	if got := len(tor.Adjacent(a)); got != 4 {
		t.Errorf("torus corner degree = %d, want 4", got)
	}
}

func TestTorusExtentTwoHasNoDuplicateLinks(t *testing.T) {
	tor := NewTorus(2, 4)
	if got := len(tor.Adjacent(tor.ID(0, 0))); got != 3 {
		t.Errorf("degree = %d, want 3 (no duplicated 2-extent wrap)", got)
	}
}

func TestMeshPanicsOnBadInput(t *testing.T) {
	cases := []func(){
		func() { NewMesh() },
		func() { NewMesh(0, 4) },
		func() { NewMesh(4).ID(5) },
		func() { NewMesh(4).ID(1, 1) },
		func() { NewMesh(4, 4).Coord(NodeID(99)) },
		func() { NewMeshImplicit(1<<16, 1<<16) }, // 2^32 nodes, one past MaxNodes
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

// TestDistanceIsAMetric property-checks symmetry and triangle
// inequality on a fixed mesh.
func TestDistanceIsAMetric(t *testing.T) {
	m := NewMesh(5, 4, 3)
	n := m.Nodes()
	f := func(a, b, c uint16) bool {
		x, y, z := NodeID(int(a)%n), NodeID(int(b)%n), NodeID(int(c)%n)
		if m.Distance(x, y) != m.Distance(y, x) {
			return false
		}
		if (m.Distance(x, y) == 0) != (x == y) {
			return false
		}
		return m.Distance(x, z) <= m.Distance(x, y)+m.Distance(y, z)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralizedHypercube(t *testing.T) {
	g := NewGeneralizedHypercube(3, 3)
	if g.Nodes() != 9 {
		t.Fatalf("nodes = %d", g.Nodes())
	}
	// Every node is adjacent to the 2 others in its row and the 2 in
	// its column.
	for id := 0; id < g.Nodes(); id++ {
		if got := len(g.Adjacent(NodeID(id))); got != 4 {
			t.Fatalf("degree of %d = %d, want 4", id, got)
		}
	}
	// Distance is the Hamming distance of coordinates.
	if d := g.Distance(g.ID(0, 0), g.ID(2, 2)); d != 2 {
		t.Errorf("distance = %d, want 2", d)
	}
	if d := g.Distance(g.ID(0, 0), g.ID(2, 0)); d != 1 {
		t.Errorf("distance = %d, want 1", d)
	}
}

func TestBinaryHypercube(t *testing.T) {
	h := NewHypercube(4)
	if h.Nodes() != 16 {
		t.Fatalf("nodes = %d", h.Nodes())
	}
	for id := 0; id < h.Nodes(); id++ {
		if got := len(h.Adjacent(NodeID(id))); got != 4 {
			t.Fatalf("degree = %d, want 4", got)
		}
	}
}

func TestHypercubeChannels(t *testing.T) {
	g := NewGeneralizedHypercube(3, 2)
	seen := map[ChannelID]bool{}
	count := 0
	for id := 0; id < g.Nodes(); id++ {
		for _, nb := range g.Adjacent(NodeID(id)) {
			ch := g.Channel(NodeID(id), nb)
			if ch == InvalidChannel || seen[ch] {
				t.Fatalf("bad channel %d -> %d", id, nb)
			}
			seen[ch] = true
			count++
		}
	}
	if count != g.ChannelSlots() {
		t.Fatalf("used %d channels, slots %d", count, g.ChannelSlots())
	}
	if g.Channel(0, 0) != InvalidChannel {
		t.Error("self channel exists")
	}
}

// The plane helpers are pure coordinate arithmetic: they must not
// care whether the substrate is a mesh or a torus, materialized or
// implicit. Each test therefore runs on all four flavours of one
// shape.

func substrates(dims ...int) map[string]*Mesh {
	return map[string]*Mesh{
		"mesh":           NewMesh(dims...),
		"mesh-implicit":  NewMeshImplicit(dims...),
		"torus":          NewTorus(dims...),
		"torus-implicit": NewTorusImplicit(dims...),
	}
}

func TestPlane(t *testing.T) {
	for name, m := range substrates(3, 4, 2) {
		// Planes along one dimension tile the node set exactly.
		for d := 0; d < m.NDims(); d++ {
			seen := make(map[NodeID]bool, m.Nodes())
			for v := 0; v < m.Dim(d); v++ {
				plane := m.Plane(d, v)
				if len(plane) != m.Nodes()/m.Dim(d) {
					t.Errorf("%s: Plane(%d,%d) has %d nodes, want %d", name, d, v, len(plane), m.Nodes()/m.Dim(d))
				}
				for i, id := range plane {
					if m.CoordAxis(id, d) != v {
						t.Errorf("%s: Plane(%d,%d) contains %d with coord %d", name, d, v, id, m.CoordAxis(id, d))
					}
					if i > 0 && plane[i-1] >= id {
						t.Errorf("%s: Plane(%d,%d) not in increasing ID order at %d", name, d, v, i)
					}
					if seen[id] {
						t.Errorf("%s: node %d in two planes along dim %d", name, id, d)
					}
					seen[id] = true
				}
			}
			if len(seen) != m.Nodes() {
				t.Errorf("%s: planes along dim %d cover %d of %d nodes", name, d, len(seen), m.Nodes())
			}
		}
	}
}

func TestPlaneOutOfRangePanics(t *testing.T) {
	m := NewMesh(3, 3)
	for _, v := range []int{-1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Plane(0, %d) did not panic", v)
				}
			}()
			m.Plane(0, v)
		}()
	}
}

func TestNearestCornerInPlane(t *testing.T) {
	for name, m := range substrates(5, 4, 3) {
		// (1,3,2): x=1 is nearer 0 than 4; y=3 is nearer 3 than 0.
		near, opp := m.NearestCornerInPlane(m.ID(1, 3, 2), 0, 1)
		if want := m.ID(0, 3, 2); near != want {
			t.Errorf("%s: nearest = %d (%v), want %d", name, near, m.Coord(near), want)
		}
		if want := m.ID(4, 0, 2); opp != want {
			t.Errorf("%s: opposite = %d (%v), want %d", name, opp, m.Coord(opp), want)
		}
		// Nearest and opposite disagree in both plane coordinates and
		// share every off-plane coordinate, for every node.
		for id := 0; id < m.Nodes(); id++ {
			n, o := m.NearestCornerInPlane(NodeID(id), 0, 1)
			for _, d := range []int{0, 1} {
				cn, co := m.CoordAxis(n, d), m.CoordAxis(o, d)
				if cn != 0 && cn != m.Dim(d)-1 {
					t.Fatalf("%s: node %d nearest coord %d = %d, not extremal", name, id, d, cn)
				}
				if co != m.Dim(d)-1-cn {
					t.Fatalf("%s: node %d corners not opposite in dim %d", name, id, d)
				}
			}
			if m.CoordAxis(n, 2) != m.CoordAxis(NodeID(id), 2) || m.CoordAxis(o, 2) != m.CoordAxis(NodeID(id), 2) {
				t.Fatalf("%s: node %d corners left the plane", name, id)
			}
			if d := m.Unwrapped().Distance(NodeID(id), n); d > (m.Dim(0)-1+m.Dim(1)-1)/2+1 {
				t.Fatalf("%s: node %d nearest corner at mesh distance %d, not nearest", name, id, d)
			}
		}
	}
}

// TestCheckDims: the shapes CheckDims rejects are exactly the ones the
// constructors panic on, and the node bound is MaxNodes, checked
// without overflowing.
func TestCheckDims(t *testing.T) {
	for _, dims := range [][]int{{4}, {16, 16, 16}, {1 << 16, 1<<16 - 1}, {MaxNodes}} {
		if err := CheckDims(dims); err != nil {
			t.Errorf("%v rejected: %v", dims, err)
		}
	}
	for _, dims := range [][]int{nil, {0, 4}, {4, -1}, {1 << 16, 1 << 16}, {MaxNodes, 2}, {1 << 40, 1 << 40}} {
		if CheckDims(dims) == nil {
			t.Errorf("%v accepted", dims)
		}
	}
}

// TestCoordAxisAndStepMatchDivision pins the multiply-shift
// arithmetic: on every node of meshes and tori with extents 1, 2, 3
// and 16 and mixed shapes, CoordAxis equals (id / stride) % extent,
// and Step equals the same step computed with / and %.
func TestCoordAxisAndStepMatchDivision(t *testing.T) {
	shapes := [][]int{
		{1}, {2}, {3}, {16}, {1, 1}, {1, 3}, {3, 1}, {2, 2}, {3, 3}, {16, 16},
		{1, 2, 3}, {3, 2, 1}, {16, 1, 3}, {2, 16, 3}, {16, 16, 16}, {5, 7, 9}, {3, 1, 2, 16},
	}
	for _, dims := range shapes {
		for _, m := range []*Mesh{NewMesh(dims...), NewTorus(dims...)} {
			checkArithmetic(t, m, func(visit func(id int)) {
				for id := 0; id < m.Nodes(); id++ {
					visit(id)
				}
			})
		}
	}
	// The 2^20-node implicit mesh of the million-node figure, on
	// sampled nodes including both ends.
	for _, m := range []*Mesh{NewMeshImplicit(128, 128, 64), NewTorusImplicit(128, 128, 64)} {
		checkArithmetic(t, m, func(visit func(id int)) {
			for id := 0; id < m.Nodes(); id += 997 {
				visit(id)
			}
			visit(m.Nodes() - 1)
		})
	}
}

func checkArithmetic(t *testing.T, m *Mesh, nodes func(visit func(id int))) {
	t.Helper()
	nodes(func(id int) {
		for d := 0; d < m.NDims(); d++ {
			k := m.Dim(d)
			c := (id / m.strides[d]) % k
			if got := m.CoordAxis(NodeID(id), d); got != c {
				t.Fatalf("%s: CoordAxis(%d, %d) = %d, want %d", m.Name(), id, d, got, c)
			}
			for _, delta := range []int{+1, -1} {
				nc := c + delta
				if m.WrapDim(d) {
					nc = (nc + k) % k
				}
				if nc < 0 || nc >= k {
					continue // Step panics off the mesh edge
				}
				want := NodeID(id + (nc-c)*m.strides[d])
				if got := m.Step(NodeID(id), d, delta); got != want {
					t.Fatalf("%s: Step(%d, %d, %+d) = %d, want %d", m.Name(), id, d, delta, got, want)
				}
			}
		}
	})
}
