package broadcast

import (
	"fmt"
	"slices"

	"repro/internal/topology"
)

// EDN is the Extended Dominating Node broadcast of Tsai & McKinley
// [20] for multiport wormhole meshes, reproduced here as a systematic
// construction with the published step count: on a
// (4·2^k)×(4·2^k)×(4·2^m) mesh it completes in k+m+4 message-passing
// steps using a three-port router.
//
// The construction has two phases. The doubling phase covers one
// "extended dominating node" (block leader) per 4×4×4 block: k rounds
// of quadrant doubling over the XY block grid (three sends per
// holder) followed by m rounds of recursive halving along the Z block
// column (one send per holder). The fill phase covers each block from
// its leader in exactly 4 steps: two rounds of three-port mirror
// doubling reach a representative in each octant of the block, and
// two more rounds repeat the pattern inside each octant.
//
// Meshes whose extents are not powers-of-two multiples of 4 (the
// paper's EDN requirement) are handled by the same construction with
// clamped block grids, giving ceil(log2(max(bx,by))) + ceil(log2 bz)
// + 4 steps for a bx×by×bz block grid.
type EDN struct{}

// NewEDN returns the Extended Dominating Node planner.
func NewEDN() EDN { return EDN{} }

// Name implements Algorithm.
func (EDN) Name() string { return "EDN" }

// Ports implements Algorithm: EDN assumes a three-port router.
func (EDN) Ports() int { return 3 }

const ednBlock = 4

// StepsFor returns the number of message-passing steps EDN uses on m.
func (EDN) StepsFor(m *topology.Mesh) int {
	if m.NDims() != 3 {
		return 0
	}
	bx := (m.Dim(0) + ednBlock - 1) / ednBlock
	by := (m.Dim(1) + ednBlock - 1) / ednBlock
	bz := (m.Dim(2) + ednBlock - 1) / ednBlock
	xy := ceilLog2(max(bx, by))
	return xy + ceilLog2(bz) + 4
}

// Plan implements Algorithm. EDN is defined for 3D meshes.
func (e EDN) Plan(m *topology.Mesh, src topology.NodeID) (*Plan, error) {
	if m.NDims() != 3 {
		return nil, fmt.Errorf("broadcast: EDN requires a 3D mesh, got %s", m.Name())
	}
	// EDN sends are unicasts that inform each node about once, so
	// N-1 one-waypoint sends size the plan.
	n := m.Nodes()
	b := newPlanBuilder(e.Name(), src, e.StepsFor(m), n-1, n-1)

	sc := [3]int{m.CoordAxis(src, 0), m.CoordAxis(src, 1), m.CoordAxis(src, 2)}
	// Block-local offset of the source; leaders of other blocks sit
	// at the same offset, clamped into truncated edge blocks.
	off := [3]int{sc[0] % ednBlock, sc[1] % ednBlock, sc[2] % ednBlock}
	grid := [3]int{
		(m.Dim(0) + ednBlock - 1) / ednBlock,
		(m.Dim(1) + ednBlock - 1) / ednBlock,
		(m.Dim(2) + ednBlock - 1) / ednBlock,
	}
	srcBlock := [3]int{sc[0] / ednBlock, sc[1] / ednBlock, sc[2] / ednBlock}

	leader := func(bx, by, bz int) topology.NodeID {
		coord := [3]int{}
		for d, b := range [3]int{bx, by, bz} {
			lo := b * ednBlock
			hi := min(lo+ednBlock, m.Dim(d)) - 1
			c := lo + off[d]
			if c > hi {
				c = hi
			}
			coord[d] = c
		}
		return m.ID(coord[0], coord[1], coord[2])
	}

	// Phase 1a: quadrant doubling over the XY block grid at the
	// source's Z block.
	xyRounds := ceilLog2(max(grid[0], grid[1]))
	e.quadDouble(b, leader, srcBlock, grid, 1, xyRounds)

	// Phase 1b: recursive halving along Z for every XY block column.
	zRounds := ceilLog2(grid[2])
	zBase := 1 + xyRounds
	for bx := 0; bx < grid[0]; bx++ {
		for by := 0; by < grid[1]; by++ {
			e.zHalve(b, leader, bx, by, 0, grid[2], srcBlock[2], zBase)
		}
	}

	// Phase 2: 4-step fill of every block from its leader.
	fillBase := zBase + zRounds
	covered := make([]bool, n)
	for bx := 0; bx < grid[0]; bx++ {
		for by := 0; by < grid[1]; by++ {
			for bz := 0; bz < grid[2]; bz++ {
				root := leader(bx, by, bz)
				lo := [3]int{bx * ednBlock, by * ednBlock, bz * ednBlock}
				hi := [3]int{
					min(lo[0]+ednBlock, m.Dim(0)),
					min(lo[1]+ednBlock, m.Dim(1)),
					min(lo[2]+ednBlock, m.Dim(2)),
				}
				e.fillBox(b, m, root, lo, hi, fillBase, 2, covered)
			}
		}
	}
	return b.finish(), nil
}

// quadDouble plans XY-plane quadrant doubling over the block grid:
// each round every holder sends to the leaders at its own relative
// position within the other quadrants of its rectangle (up to three
// sends, all in the same step), then recurses into the quadrants.
func (e EDN) quadDouble(b *planBuilder, leader func(bx, by, bz int) topology.NodeID,
	srcBlock, grid [3]int, step, rounds int) {

	bz := srcBlock[2]
	var rec func(x0, x1, y0, y1, hx, hy, step int)
	rec = func(x0, x1, y0, y1, hx, hy, step int) {
		sx, sy := x1-x0, y1-y0
		if sx <= 1 && sy <= 1 {
			return
		}
		mx := x0 + (sx+1)/2
		my := y0 + (sy+1)/2
		type quad struct{ qx0, qx1, qy0, qy1 int }
		quads := []quad{
			{x0, mx, y0, my}, {mx, x1, y0, my},
			{x0, mx, my, y1}, {mx, x1, my, y1},
		}
		holderQuad := -1
		for i, q := range quads {
			if hx >= q.qx0 && hx < q.qx1 && hy >= q.qy0 && hy < q.qy1 {
				holderQuad = i
			}
		}
		from := leader(hx, hy, bz)
		for i, q := range quads {
			if i == holderQuad || q.qx0 >= q.qx1 || q.qy0 >= q.qy1 {
				// Holder's own quadrant, or an empty quadrant.
				if i != holderQuad {
					continue
				}
				rec(q.qx0, q.qx1, q.qy0, q.qy1, hx, hy, step+1)
				continue
			}
			// Same relative position, clamped into the quadrant.
			px := q.qx0 + (hx - quads[holderQuad].qx0)
			py := q.qy0 + (hy - quads[holderQuad].qy0)
			if px >= q.qx1 {
				px = q.qx1 - 1
			}
			if py >= q.qy1 {
				py = q.qy1 - 1
			}
			to := leader(px, py, bz)
			if to != from {
				b.chain(step, from, false, to)
			}
			rec(q.qx0, q.qx1, q.qy0, q.qy1, px, py, step+1)
		}
	}
	rec(0, grid[0], 0, grid[1], srcBlock[0], srcBlock[1], step)
}

// zHalve plans recursive halving along the Z block column (bx, by)
// over block range [lo, hi) with the holder at block zPos.
func (e EDN) zHalve(b *planBuilder, leader func(bx, by, bz int) topology.NodeID,
	bx, by, lo, hi, zPos, step int) {
	if hi-lo <= 1 {
		return
	}
	mid := lo + (hi-lo+1)/2
	var peer int
	if zPos < mid {
		peer = mid + (zPos - lo)
		if peer >= hi {
			peer = hi - 1
		}
	} else {
		peer = lo + (zPos - mid)
		if peer >= mid {
			peer = mid - 1
		}
	}
	// Note leader(srcBlock) == src by construction (the leader offset
	// is the source's block-local offset), so no special-casing of
	// the source's own column is needed.
	from := leader(bx, by, zPos)
	to := leader(bx, by, peer)
	if to != from {
		b.chain(step, from, false, to)
	}
	if zPos < mid {
		e.zHalve(b, leader, bx, by, lo, mid, zPos, step+1)
		e.zHalve(b, leader, bx, by, mid, hi, peer, step+1)
	} else {
		e.zHalve(b, leader, bx, by, mid, hi, zPos, step+1)
		e.zHalve(b, leader, bx, by, lo, mid, peer, step+1)
	}
}

// fillBox plans the 4-step coverage of box [lo, hi) from root using
// two levels of three-port mirror doubling. level counts remaining
// levels (2 for a 4-wide box: halves of 2, then singletons).
func (e EDN) fillBox(b *planBuilder, m *topology.Mesh, root topology.NodeID, lo, hi [3]int, step, level int, covered []bool) {
	if level == 0 {
		return
	}
	rc := [3]int{m.CoordAxis(root, 0), m.CoordAxis(root, 1), m.CoordAxis(root, 2)}
	// Split each dimension at its ceil midpoint; mirror the root's
	// position into the other half, clamped.
	var mids, mirror [3]int
	for d := 0; d < 3; d++ {
		size := hi[d] - lo[d]
		mids[d] = lo[d] + (size+1)/2
		if rc[d] < mids[d] {
			mv := rc[d] + (mids[d] - lo[d])
			if mv >= hi[d] {
				mv = hi[d] - 1
			}
			mirror[d] = mv
		} else {
			mirror[d] = rc[d] - (mids[d] - lo[d])
			if mirror[d] < lo[d] {
				mirror[d] = lo[d]
			}
		}
	}
	// Eight half-combination representatives; bit d set means the
	// mirrored half along dimension d.
	rep := func(mask int) topology.NodeID {
		c := [3]int{rc[0], rc[1], rc[2]}
		for d := 0; d < 3; d++ {
			if mask&(1<<d) != 0 {
				c[d] = mirror[d]
			}
		}
		return m.ID(c[0], c[1], c[2])
	}
	var reps [8]topology.NodeID
	for mask := 0; mask < 8; mask++ {
		reps[mask] = rep(mask)
	}
	// Step A: root -> single-bit reps. Step B: root -> triple-bit
	// rep; single-bit reps -> their double-bit completion.
	addSend := func(step int, from, to topology.NodeID) {
		if from == to || covered[to] {
			return
		}
		covered[to] = true
		b.chain(step, from, false, to)
	}
	covered[root] = true
	addSend(step, root, reps[1])
	addSend(step, root, reps[2])
	addSend(step, root, reps[4])
	addSend(step+1, root, reps[7])
	addSend(step+1, reps[1], reps[3])
	addSend(step+1, reps[2], reps[6])
	addSend(step+1, reps[4], reps[5])

	// Recurse into each octant with its representative as root, once
	// per distinct representative.
	for mask := 0; mask < 8; mask++ {
		r := reps[mask]
		if slices.Contains(reps[:mask], r) {
			continue
		}
		var olo, ohi [3]int
		for d := 0; d < 3; d++ {
			c := rc[d]
			if mask&(1<<d) != 0 {
				c = mirror[d]
			}
			if c < mids[d] {
				olo[d], ohi[d] = lo[d], mids[d]
			} else {
				olo[d], ohi[d] = mids[d], hi[d]
			}
		}
		e.fillBox(b, m, r, olo, ohi, step+2, level-1, covered)
	}
}
