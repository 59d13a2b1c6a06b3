package network

import (
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestWaitQueuesBoundedUnderSustainedContention is the regression
// test for the seed's FIFO retention bug: release()/grantPort()
// drained waiters with queue = queue[1:], pinning every drained worm
// in the backing array's dead head. The queues are now intrusive
// rings, so after a long saturated run every lane and port must hold
// no queue tail, and no worm that waited may still link to another.
func TestWaitQueuesBoundedUnderSustainedContention(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 1)
	n := MustNew(s, m, DefaultConfig())
	const waves, perWave = 60, 8
	delivered := 0
	var queuedWorms []*worm // every worm seen in a queue, retained past its retirement
	at := sim.Time(0)
	for wave := 0; wave < waves; wave++ {
		// Each wave floods the line's shared channels from two
		// sources at one instant, then the next wave starts after the
		// backlog drains — sustained contention, bounded concurrency.
		for i := 0; i < perWave; i++ {
			for _, src := range []topology.NodeID{m.ID(0, 0), m.ID(1, 0)} {
				n.MustSend(at, &Transfer{
					Source:    src,
					Waypoints: []topology.NodeID{m.ID(3, 0)},
					Length:    40,
					OnDeliver: func(_ topology.NodeID, _ sim.Time) { delivered++ },
				})
			}
		}
		s.At(at+DefaultConfig().Ts+0.5, func() {
			for w := n.activeHead; w != nil; w = w.activeNext {
				if w.qnext != nil {
					queuedWorms = append(queuedWorms, w)
				}
			}
		})
		at += 2 * perWave * (DefaultConfig().Ts + 40*0.003 + 1)
	}
	s.Run()
	if want := waves * perWave * 2; delivered != want {
		t.Fatalf("delivered %d/%d worms; stuck: %v", delivered, want, n.Stuck())
	}
	if n.InFlight() != 0 {
		t.Fatalf("%d worms still in flight", n.InFlight())
	}
	if len(queuedWorms) == 0 {
		t.Fatal("no worm ever queued: the workload does not contend")
	}
	for i := range n.channels {
		if n.channels[i].qtail != nil {
			t.Errorf("channel %d queue not drained", i)
		}
	}
	for i := range n.ports {
		if n.ports[i].qtail != nil {
			t.Errorf("port %d queue not drained", i)
		}
	}
	for _, w := range queuedWorms {
		if w.qnext != nil {
			t.Fatal("a worm that waited still links into a queue")
		}
	}
}

// TestUnicastHotPathAllocationBudget pins the hot-path overhaul: once
// the network's worms and calendar are warm, injecting and fully draining a
// unicast worm performs no heap allocation at all — no closures, no
// per-worm slices, no queue growth. The pin holds for both drains, Run
// and a Step loop: the calendar may allocate only while its arena and
// rungs grow to the workload's high water, which the warm-up covers.
func TestUnicastHotPathAllocationBudget(t *testing.T) {
	for _, step := range []bool{false, true} {
		t.Run(drainName(step), func(t *testing.T) {
			s := sim.New()
			m := topology.NewMesh(8, 8)
			n := MustNew(s, m, DefaultConfig())
			tr := &Transfer{
				Source:    m.ID(0, 0),
				Waypoints: []topology.NodeID{m.ID(7, 7)},
				Length:    64,
			}
			for i := 0; i < 32; i++ { // warm worms, calendar and rings
				n.MustSend(s.Now(), tr)
				drain(s, step)
			}
			avg := testing.AllocsPerRun(200, func() {
				n.MustSend(s.Now(), tr)
				drain(s, step)
			})
			if avg > 0 {
				t.Errorf("warm unicast send+drain allocates %v per op, want 0", avg)
			}
			if n.InFlight() != 0 {
				t.Fatalf("%d worms still in flight", n.InFlight())
			}
		})
	}
}

// TestWormPoolRecyclesCleanly checks a worm's life on its network's
// free list. A worm whose path outgrows its inline store spills into
// buffers from the network's spill lists. Once drained it is back on
// the free list with no transfer, path, cursors or queue, its spill
// buffers are back on the network's lists, and its slices are its
// inline arrays again. The next send reuses the worm and the buffers.
func TestWormPoolRecyclesCleanly(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 4)
	n := MustNew(s, m, DefaultConfig())
	// Every node of the 6-hop path (0,0) -> (3,3) is a waypoint, so
	// both per-hop slices outgrow wormInline and spill once.
	var inFlight *worm
	var heldCap, deliverCap int
	tr := &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(1, 0), m.ID(2, 0), m.ID(3, 0), m.ID(3, 1), m.ID(3, 2), m.ID(3, 3)},
		Length:    16,
		OnDeliver: func(topology.NodeID, sim.Time) {
			inFlight = n.activeHead
			heldCap, deliverCap = cap(inFlight.held), cap(inFlight.deliver)
		},
		OnPath: func([]topology.NodeID, bool) {},
	}
	var buffers [2]*hold
	for round := range buffers {
		n.MustSend(s.Now(), tr)
		s.Run()
		if n.InFlight() != 0 {
			t.Fatalf("%d worms still in flight", n.InFlight())
		}
		if heldCap != 2*wormInline || deliverCap != 2*wormInline {
			t.Fatalf("a 6-hop, 6-waypoint worm held capacities %d and %d, want %d", heldCap, deliverCap, 2*wormInline)
		}
		if len(n.freeWorms) != 1 || n.freeWorms[0] != inFlight {
			t.Fatalf("round %d: free list holds %d worms, want only the drained one", round, len(n.freeWorms))
		}
		w := n.freeWorms[0]
		if w.t != nil || w.net != n || w.path != nil || w.chApp != nil {
			t.Error("recycled worm retains its transfer, path or router, or lost its network")
		}
		if w.relCur != 0 || w.delCur != 0 || w.waiting != topology.InvalidChannel || w.qnext != nil {
			t.Error("recycled worm retains drain cursors or a queue")
		}
		if len(w.held) != 0 || cap(w.held) != wormInline || unsafe.SliceData(w.held) != &w.heldBuf[0] ||
			len(w.deliver) != 0 || cap(w.deliver) != wormInline || unsafe.SliceData(w.deliver) != &w.deliverBuf[0] {
			t.Error("recycled worm is not back on its inline store")
		}
		if len(n.heldSpill) != 1 || len(n.heldSpill[0]) != 1 || len(n.deliverSpill) != 1 || len(n.deliverSpill[0]) != 1 {
			t.Fatalf("spill lists hold %v and %v buffers, want one 8-entry buffer each", n.heldSpill, n.deliverSpill)
		}
		buffers[round] = unsafe.SliceData(n.heldSpill[0][0])
	}
	if buffers[0] != buffers[1] {
		t.Error("the second send spilled into a new buffer, not the free one")
	}
}
