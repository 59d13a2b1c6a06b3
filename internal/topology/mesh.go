// Package topology models the direct interconnection networks of the
// study: the k-ary n-dimensional mesh (the paper's subject), the torus
// (k-ary n-cube) and the generalised hypercube (the paper's §4 future
// work). Nodes are dense integer IDs; channels are directed links with
// dense integer IDs so the network simulator can index per-channel
// state with slices instead of maps.
package topology

import (
	"fmt"
	"math/bits"
	"strings"
	"sync"
)

// NodeID identifies a node. IDs are dense in [0, Nodes()).
type NodeID int

// ChannelID identifies a directed channel. IDs are dense per topology
// in [0, ChannelSlots()); some slots may be invalid at mesh edges.
type ChannelID int

// InvalidChannel is returned when two nodes are not adjacent.
const InvalidChannel ChannelID = -1

// Topology is what the network simulator needs from an interconnect:
// a node set, a directed-channel numbering, and adjacency.
type Topology interface {
	// Nodes returns the number of nodes.
	Nodes() int
	// ChannelSlots returns an upper bound for channel IDs; every
	// valid ChannelID is less than this.
	ChannelSlots() int
	// Channel returns the directed channel from one node to an
	// adjacent node, or InvalidChannel if they are not adjacent.
	Channel(from, to NodeID) ChannelID
	// Adjacent returns the neighbors of a node. The returned slice
	// must not be modified.
	Adjacent(n NodeID) []NodeID
	// Name returns a short description such as "mesh 8x8x8".
	Name() string
}

// NeighborAppender is the implicit-adjacency capability: a topology
// that can enumerate a node's neighbors into a caller-supplied buffer
// without materializing (or even owning) an adjacency table. Callers
// that would otherwise hold Adjacent's shared slice across reentrant
// calls — or that run on million-node substrates where a dense table
// is the dominant allocation — should prefer this form when the
// topology offers it. The neighbor order is identical to Adjacent's.
type NeighborAppender interface {
	AppendNeighbors(id NodeID, buf []NodeID) []NodeID
}

// AppendNeighborsOf enumerates id's neighbors through t's
// NeighborAppender capability when present, falling back to Adjacent.
// The result is appended to buf and returned.
func AppendNeighborsOf(t Topology, id NodeID, buf []NodeID) []NodeID {
	if na, ok := t.(NeighborAppender); ok {
		return na.AppendNeighbors(id, buf)
	}
	return append(buf, t.Adjacent(id)...)
}

// Mesh is a k-ary n-dimensional mesh or, when Wrap is set, a torus
// (k-ary n-cube). Dimension 0 varies fastest in the ID encoding.
type Mesh struct {
	dims    []int
	strides []int
	axes    []axis // per-dimension reciprocals for CoordAxis and Step
	n       int
	wrap    bool
	// implicit suppresses the materialized adjacency table: neighbors
	// are computed from coordinates on demand (see AppendNeighbors).
	// The dense table costs one slice header plus one small allocation
	// per node, which is the dominant construction cost at million-node
	// scale; an implicit mesh allocates O(dims) regardless of n.
	implicit bool
	adj      [][]NodeID

	// unwrapped lazily caches the wrap-free twin (same extents, no
	// wraparound links) that unwrap frames plan on; building it costs
	// a full adjacency table, so it is shared by every Frame over this
	// mesh. Guarded by unwrapOnce: topologies are read shared across
	// the experiment pool's workers.
	unwrapOnce sync.Once
	unwrapped  *Mesh
}

// NewMesh returns a mesh with the given per-dimension extents.
// It panics if no dimensions are given or any extent is < 1.
func NewMesh(dims ...int) *Mesh { return newMesh(false, false, dims) }

// NewTorus returns a torus (k-ary n-cube) with the given extents.
// Wraparound links are only created along dimensions of extent >= 3,
// since a 2-extent wraparound would duplicate the existing link.
func NewTorus(dims ...int) *Mesh { return newMesh(true, false, dims) }

// NewMeshImplicit returns a mesh whose adjacency is computed from
// coordinates on demand instead of stored: construction is O(dims)
// regardless of node count, which is what makes million-node
// substrates affordable. It is interchangeable with NewMesh — same
// IDs, channels, routes and neighbor order — except that Adjacent
// allocates a fresh slice per call; hot paths should use
// AppendNeighbors with a reused buffer.
func NewMeshImplicit(dims ...int) *Mesh { return newMesh(false, true, dims) }

// NewTorusImplicit is NewTorus with on-demand adjacency; see
// NewMeshImplicit.
func NewTorusImplicit(dims ...int) *Mesh { return newMesh(true, true, dims) }

// MaxNodes bounds a mesh's node count. Below 2^32 every node ID,
// stride and extent is an operand the multiply-shift division of
// CoordAxis and Step handles exactly.
const MaxNodes = 1<<32 - 1

// CheckDims reports why dims cannot shape a mesh: no dimensions, an
// extent below 1, or more than MaxNodes nodes. The mesh constructors
// panic on exactly these shapes.
func CheckDims(dims []int) error {
	if len(dims) == 0 {
		return fmt.Errorf("topology: mesh needs at least one dimension")
	}
	n := 1
	for d, k := range dims {
		if k < 1 {
			return fmt.Errorf("topology: dimension %d has extent %d", d, k)
		}
		if k > MaxNodes/n {
			return fmt.Errorf("topology: mesh %v has more than %d nodes", dims, MaxNodes)
		}
		n *= k
	}
	return nil
}

func newMesh(wrap, implicit bool, dims []int) *Mesh {
	if err := CheckDims(dims); err != nil {
		panic(err.Error())
	}
	m := &Mesh{
		dims:     append([]int(nil), dims...),
		strides:  make([]int, len(dims)),
		axes:     make([]axis, len(dims)),
		n:        1,
		wrap:     wrap,
		implicit: implicit,
	}
	for d, k := range dims {
		m.strides[d] = m.n
		m.axes[d] = axis{strideInv: reciprocal(m.n), dimInv: reciprocal(k), dim: uint64(k)}
		m.n *= k
	}
	if !implicit {
		m.buildAdjacency()
	}
	return m
}

func (m *Mesh) buildAdjacency() {
	m.adj = make([][]NodeID, m.n)
	for id := 0; id < m.n; id++ {
		m.adj[id] = m.AppendNeighbors(NodeID(id), nil)
	}
}

// AppendNeighbors appends the neighbors of node id to buf and returns
// the extended slice, computing them from coordinates — no adjacency
// table is consulted or required, and with adequate buf capacity the
// call does not allocate. The order is the dense table's: per
// dimension ascending, +1 direction before -1.
func (m *Mesh) AppendNeighbors(id NodeID, buf []NodeID) []NodeID {
	v := int(id)
	if v < 0 || v >= m.n {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", v, m.n))
	}
	for d, k := range m.dims {
		c := m.CoordAxis(id, d)
		wrapD := m.wrap && k >= 3
		if c+1 < k {
			buf = append(buf, id+NodeID(m.strides[d]))
		} else if wrapD {
			buf = append(buf, id-NodeID(c*m.strides[d]))
		}
		if c-1 >= 0 {
			buf = append(buf, id-NodeID(m.strides[d]))
		} else if wrapD {
			buf = append(buf, id+NodeID((k-1)*m.strides[d]))
		}
	}
	return buf
}

// Implicit reports whether the mesh computes adjacency on demand
// instead of storing it.
func (m *Mesh) Implicit() bool { return m.implicit }

// Nodes returns the number of nodes in the mesh.
func (m *Mesh) Nodes() int { return m.n }

// NDims returns the number of dimensions.
func (m *Mesh) NDims() int { return len(m.dims) }

// Dim returns the extent of dimension d.
func (m *Mesh) Dim(d int) int { return m.dims[d] }

// Dims returns a copy of the per-dimension extents.
func (m *Mesh) Dims() []int { return append([]int(nil), m.dims...) }

// Wrap reports whether the mesh has wraparound (torus) links.
func (m *Mesh) Wrap() bool { return m.wrap }

// WrapDim reports whether dimension d actually carries wraparound
// links: the topology is a torus AND the extent is at least 3 (a
// 2-extent wraparound would duplicate the existing link, so none is
// created — see NewTorus).
func (m *Mesh) WrapDim(d int) bool { return m.wrap && m.dims[d] >= 3 }

// HasWrapLinks reports whether any dimension carries wraparound
// links. A NewTorus(2, 2) has none and behaves exactly like a mesh.
func (m *Mesh) HasWrapLinks() bool {
	for d := range m.dims {
		if m.WrapDim(d) {
			return true
		}
	}
	return false
}

// Unwrapped returns the wrap-free twin of the mesh: same extents, no
// wraparound links. For a plain mesh it is the mesh itself. The twin
// is built once and cached — unwrap frames (topology.Frame) plan on
// it for every source, so per-plan rebuilds would dominate planning
// cost on tori.
func (m *Mesh) Unwrapped() *Mesh {
	if !m.wrap {
		return m
	}
	// The twin inherits implicitness: unwrapping a million-node torus
	// must not materialize the adjacency the torus itself avoided.
	m.unwrapOnce.Do(func() { m.unwrapped = newMesh(false, m.implicit, m.dims) })
	return m.unwrapped
}

// MeshOnly is the shared capability check for entry points whose
// correctness argument genuinely needs a mesh without wraparound
// links (e.g. the mesh turn-model constructors: their deadlock proofs
// break on a wrapped ring). It returns nil on a mesh and a consistent
// error naming the operation otherwise, so every rejection reads the
// same and tests can pin one message.
func (m *Mesh) MeshOnly(op string) error {
	if m.wrap {
		return fmt.Errorf("topology: %s requires a mesh without wraparound links, got %s", op, m.Name())
	}
	return nil
}

// Name returns e.g. "mesh 8x8x8" or "torus 4x4x4".
func (m *Mesh) Name() string {
	parts := make([]string, len(m.dims))
	for i, k := range m.dims {
		parts[i] = fmt.Sprint(k)
	}
	kind := "mesh"
	if m.wrap {
		kind = "torus"
	}
	return kind + " " + strings.Join(parts, "x")
}

// ID returns the node at the given coordinates. It panics if the
// coordinate count or any value is out of range.
func (m *Mesh) ID(coord ...int) NodeID {
	if len(coord) != len(m.dims) {
		panic(fmt.Sprintf("topology: got %d coords for %d dims", len(coord), len(m.dims)))
	}
	id := 0
	for d, v := range coord {
		if v < 0 || v >= m.dims[d] {
			panic(fmt.Sprintf("topology: coord %d out of range [0,%d) in dim %d", v, m.dims[d], d))
		}
		id += v * m.strides[d]
	}
	return NodeID(id)
}

// Coord returns the coordinates of node id in a fresh slice.
func (m *Mesh) Coord(id NodeID) []int {
	c := make([]int, len(m.dims))
	m.CoordInto(id, c)
	return c
}

// CoordInto writes the coordinates of node id into buf, which must
// have length NDims.
func (m *Mesh) CoordInto(id NodeID, buf []int) {
	v := int(id)
	if v < 0 || v >= m.n {
		panic(fmt.Sprintf("topology: node %d out of range [0,%d)", v, m.n))
	}
	for d := range m.dims {
		buf[d] = m.CoordAxis(id, d)
	}
}

// axis holds one dimension's extent and the reciprocals of its stride
// and extent.
type axis struct {
	strideInv, dimInv, dim uint64
}

// reciprocal returns Lemire's 64-bit reciprocal ⌊(2^64−1)/d⌋ + 1 of
// d ≥ 1 (fastdiv/fastmod, arXiv 1902.01961): for all a, d < 2^32,
// a/d is the high word of a·r and a%d the high word of (a·r mod 2^64)·d.
// For d = 1 the sum wraps to 0, which CoordAxis reads as "no division".
func reciprocal(d int) uint64 { return ^uint64(0)/uint64(d) + 1 }

// CoordAxis returns coordinate d of node id, (id / stride) % extent,
// without allocating or dividing: one 128-bit product for the quotient
// (none for stride 1) and two multiplies for the remainder, all exact
// under the MaxNodes bound.
func (m *Mesh) CoordAxis(id NodeID, d int) int {
	a := &m.axes[d]
	q := uint64(id)
	if a.strideInv != 0 {
		q, _ = bits.Mul64(q, a.strideInv)
	}
	c, _ := bits.Mul64(q*a.dimInv, a.dim)
	return int(c)
}

// Adjacent returns the neighbors of node id. The slice is shared; do
// not modify it. On an implicit mesh each call computes a fresh slice
// (safe for nested iteration, but allocating); hot paths there should
// use AppendNeighbors with a reused buffer.
func (m *Mesh) Adjacent(id NodeID) []NodeID {
	if m.implicit {
		return m.AppendNeighbors(id, nil)
	}
	return m.adj[id]
}

// Step returns the node one hop from id along dimension d in
// direction delta (±1), wrapping on a torus with at least three
// nodes in that dimension. Unlike Coord/ID round-trips it does not
// allocate, which matters to routing functions on the simulation's
// innermost loop. It panics if the move leaves the mesh.
func (m *Mesh) Step(id NodeID, d, delta int) NodeID {
	c := m.CoordAxis(id, d)
	nc := c + delta
	if k := m.dims[d]; m.wrap && k >= 3 {
		// One step leaves the ring by at most one position either way.
		if nc < 0 {
			nc += k
		} else if nc >= k {
			nc -= k
		}
	}
	if nc < 0 || nc >= m.dims[d] {
		panic(fmt.Sprintf("topology: step %+d leaves dim %d of %s from node %d", delta, d, m.Name(), id))
	}
	return id + NodeID((nc-c)*m.strides[d])
}

// ChannelSlots returns the size of the channel ID space:
// nodes × dims × 2 directions. Edge slots without a physical link are
// never returned by Channel.
func (m *Mesh) ChannelSlots() int { return m.n * len(m.dims) * 2 }

// Channel returns the directed channel from one node to an adjacent
// node, or InvalidChannel if they are not adjacent. The encoding is
// (from·NDims + dim)·2 + dir with dir 0 for the positive direction.
func (m *Mesh) Channel(from, to NodeID) ChannelID {
	if from == to {
		return InvalidChannel
	}
	for d := range m.dims {
		cf := m.CoordAxis(from, d)
		ct := m.CoordAxis(to, d)
		if cf == ct {
			continue
		}
		// All other axes must match.
		if !m.sameExcept(from, to, d) {
			return InvalidChannel
		}
		k := m.dims[d]
		switch {
		case ct == cf+1:
			return m.channelID(from, d, 0)
		case ct == cf-1:
			return m.channelID(from, d, 1)
		case m.wrap && k >= 3 && cf == k-1 && ct == 0:
			return m.channelID(from, d, 0)
		case m.wrap && k >= 3 && cf == 0 && ct == k-1:
			return m.channelID(from, d, 1)
		default:
			return InvalidChannel
		}
	}
	return InvalidChannel
}

func (m *Mesh) channelID(from NodeID, dim, dir int) ChannelID {
	return ChannelID((int(from)*len(m.dims)+dim)*2 + dir)
}

// DirChannel returns the directed channel leaving from along
// dimension d in direction dir (0 positive, 1 negative) — the same ID
// Channel(from, Step(from, d, ±1)) yields, including the torus wrap
// hops, without re-deriving dimension and direction from the endpoint
// pair. Routing fast paths use it to emit each candidate's channel
// during the coordinate walk they already perform.
func (m *Mesh) DirChannel(from NodeID, d, dir int) ChannelID {
	return m.channelID(from, d, dir)
}

// sameExcept reports whether a and b agree on every axis except d.
func (m *Mesh) sameExcept(a, b NodeID, d int) bool {
	for i := range m.dims {
		if i == d {
			continue
		}
		if m.CoordAxis(a, i) != m.CoordAxis(b, i) {
			return false
		}
	}
	return true
}

// Distance returns the minimal hop count between two nodes, honoring
// wraparound when present.
func (m *Mesh) Distance(a, b NodeID) int {
	total := 0
	for d, k := range m.dims {
		diff := m.CoordAxis(a, d) - m.CoordAxis(b, d)
		if diff < 0 {
			diff = -diff
		}
		if m.wrap && k >= 3 && k-diff < diff {
			diff = k - diff
		}
		total += diff
	}
	return total
}

// Diameter returns the maximum shortest-path distance in the mesh.
func (m *Mesh) Diameter() int {
	total := 0
	for _, k := range m.dims {
		d := k - 1
		if m.wrap && k >= 3 {
			d = k / 2
		}
		total += d
	}
	return total
}

// Plane returns all nodes whose coordinate along dimension d equals v,
// in increasing node-ID order. For a 3D mesh, Plane(2, z) is the z-th
// XY plane the AB algorithm treats as a 2D sub-mesh.
func (m *Mesh) Plane(d, v int) []NodeID {
	if v < 0 || v >= m.dims[d] {
		panic(fmt.Sprintf("topology: plane index %d out of range in dim %d", v, d))
	}
	out := make([]NodeID, 0, m.n/m.dims[d])
	for id := 0; id < m.n; id++ {
		if m.CoordAxis(NodeID(id), d) == v {
			out = append(out, NodeID(id))
		}
	}
	return out
}

// NearestCornerInPlane returns the corner of the (d0,d1) plane through
// node id closest to id (Manhattan distance within the plane), and the
// opposite corner of that plane. The AB algorithm's first step routes
// to exactly these two nodes.
func (m *Mesh) NearestCornerInPlane(id NodeID, d0, d1 int) (nearest, opposite NodeID) {
	coord := m.Coord(id)
	c0, c1 := coord[d0], coord[d1]
	lo0 := c0 < m.dims[d0]-c0 // closer to 0 along d0?
	lo1 := c1 < m.dims[d1]-c1

	near := append([]int(nil), coord...)
	opp := append([]int(nil), coord...)
	if lo0 {
		near[d0], opp[d0] = 0, m.dims[d0]-1
	} else {
		near[d0], opp[d0] = m.dims[d0]-1, 0
	}
	if lo1 {
		near[d1], opp[d1] = 0, m.dims[d1]-1
	} else {
		near[d1], opp[d1] = m.dims[d1]-1, 0
	}
	return m.ID(near...), m.ID(opp...)
}
