package network

import (
	"testing"

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
// the worm pool and calendar are warm, injecting and fully draining a
// unicast worm performs no heap allocation at all — no closures, no
// per-worm slices, no queue growth. The pin holds for both drains, Run
// and a Step loop: the calendar may allocate only while its arena and
// rungs grow to the workload's high water, which the warm-up covers.
func TestUnicastHotPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so warm worms are rebuilt")
	}
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
			for i := 0; i < 32; i++ { // warm pool, calendar and rings
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

// TestWormPoolRecyclesCleanly checks the pooled-object lifecycle at
// the unit level: putWorm must return a worm to the process-wide pool
// with empty per-hop state, no path, no reference to its previous
// Transfer or network, and its grown held and deliver capacity intact.
// The test retains the pointer across putWorm — the reset happens in
// place, so the invariant is checkable without depending on sync.Pool
// internals.
func TestWormPoolRecyclesCleanly(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 4)
	n := MustNew(s, m, DefaultConfig())
	w := n.getWorm()
	w.net = n
	w.t = &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 3)}, Length: 16}
	w.cur = m.ID(1, 1)
	w.path = append(w.path, m.ID(0, 0), m.ID(1, 0))
	w.held = append(w.held, hold{3, 1}, hold{4, 2})
	w.deliver = append(w.deliver, 2)
	w.relCur, w.delCur = 1, 1
	wantCap := cap(w.held)
	n.putWorm(w)
	if w.t != nil || w.net != nil {
		t.Error("recycled worm retains its transfer or network")
	}
	if len(w.held) != 0 || len(w.deliver) != 0 || w.path != nil {
		t.Error("recycled worm retains per-hop state")
	}
	if w.relCur != 0 || w.delCur != 0 {
		t.Error("recycled worm retains drain cursors")
	}
	if cap(w.held) != wantCap || cap(w.deliver) == 0 {
		t.Error("recycled worm lost its slice capacity")
	}
	if w.waiting != topology.InvalidChannel {
		t.Error("recycled worm still waits on a channel")
	}
	// A full send/drain cycle must leave nothing in flight and recycle
	// through the same code path.
	n.MustSend(0, &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 3)}, Length: 16})
	s.Run()
	if n.InFlight() != 0 {
		t.Fatalf("%d worms still in flight", n.InFlight())
	}
}
