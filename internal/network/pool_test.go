package network

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestWaitQueuesBoundedUnderSustainedContention is the regression
// test for the seed's FIFO retention bug: release()/grantPort()
// drained waiters with queue = queue[1:], pinning every drained worm
// in the backing array's dead head. After a long saturated run every
// wait queue must be fully drained, hold no references to retired
// worms, and sit at a capacity bounded by its high-water mark — not
// by the total number of worms that ever queued.
func TestWaitQueuesBoundedUnderSustainedContention(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 1)
	n := MustNew(s, m, DefaultConfig())
	const waves, perWave = 60, 8
	delivered := 0
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
		at += 2 * perWave * (DefaultConfig().Ts + 40*0.003 + 1)
	}
	s.Run()
	if want := waves * perWave * 2; delivered != want {
		t.Fatalf("delivered %d/%d worms; stuck: %v", delivered, want, n.Stuck())
	}
	if n.InFlight() != 0 {
		t.Fatalf("%d worms still in flight", n.InFlight())
	}
	checkRing := func(kind string, idx int, q *wormRing) {
		t.Helper()
		if q.Len() != 0 {
			t.Errorf("%s %d queue not drained: %d left", kind, idx, q.Len())
		}
		for slot, w := range q.buf {
			if w != nil {
				t.Errorf("%s %d slot %d retains a drained worm", kind, idx, slot)
			}
		}
		// perWave worms per source with two sources: no queue can
		// ever hold more than one wave, so capacity must stay at the
		// first wave's power-of-two high-water, not grow with the
		// 60-wave total.
		if q.Cap() > 2*perWave*2 {
			t.Errorf("%s %d queue capacity %d outlived the high-water mark", kind, idx, q.Cap())
		}
	}
	for i := range n.channels {
		checkRing("channel", i, &n.channels[i].queue)
	}
	for i := range n.ports {
		checkRing("port", i, &n.ports[i].queue)
	}
}

// TestUnicastHotPathAllocationBudget pins the hot-path overhaul: once
// the worm pool and calendar are warm, injecting and fully draining a
// unicast worm performs no heap allocation at all — no closures, no
// per-worm slices, no queue growth. The pin holds for both calendar
// implementations: the ladder may allocate only while its arena and
// rungs grow to the workload's high water, which the warm-up covers.
func TestUnicastHotPathAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so warm worms are rebuilt")
	}
	for _, c := range []sim.Calendar{sim.Ladder, sim.Heap} {
		t.Run(c.String(), func(t *testing.T) {
			s := sim.NewWithCalendar(c)
			m := topology.NewMesh(8, 8)
			n := MustNew(s, m, DefaultConfig())
			tr := &Transfer{
				Source:    m.ID(0, 0),
				Waypoints: []topology.NodeID{m.ID(7, 7)},
				Length:    64,
			}
			for i := 0; i < 32; i++ { // warm pool, calendar and rings
				n.MustSend(s.Now(), tr)
				s.Run()
			}
			avg := testing.AllocsPerRun(200, func() {
				n.MustSend(s.Now(), tr)
				s.Run()
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
// with empty per-hop state, no reference to its previous Transfer or
// network, and its grown slice capacity intact. The test retains the
// pointer across putWorm — the reset happens in place, so the
// invariant is checkable without depending on sync.Pool internals.
func TestWormPoolRecyclesCleanly(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 4)
	n := MustNew(s, m, DefaultConfig())
	w := n.getWorm()
	w.net = n
	w.t = &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 3)}, Length: 16}
	w.cur = m.ID(1, 1)
	w.wpIdx = 1
	w.path = append(w.path, m.ID(0, 0), m.ID(1, 0))
	w.grants = append(w.grants, 1, 2)
	w.chans = append(w.chans, 3, 4)
	w.deliver = append(w.deliver, 2)
	w.relRecs = append(w.relRecs, laneRel{})
	w.relCur, w.delCur = 1, 1
	wantCap := cap(w.path)
	n.putWorm(w)
	if w.t != nil || w.net != nil {
		t.Error("recycled worm retains its transfer or network")
	}
	if len(w.path) != 0 || len(w.chans) != 0 || len(w.grants) != 0 || len(w.deliver) != 0 {
		t.Error("recycled worm retains per-hop state")
	}
	if len(w.relRecs) != 0 || w.relCur != 0 || w.delCur != 0 {
		t.Error("recycled worm retains drain cursors")
	}
	if cap(w.path) != wantCap || cap(w.chans) == 0 {
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
