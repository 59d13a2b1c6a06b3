package network

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// Wavefront batches hand the network every same-instant event in one
// run, so the hops inside a batch execute back to back against the
// lane state. For hops on disjoint resources that intra-batch order
// is arbitrary — the committed state must not depend on it. These
// tests pin that commutativity directly: inject a same-instant burst
// of worms on disjoint paths in every permuted order and require the
// committed state (per-destination delivery times, completion time,
// event count) to be identical, drained by Run's batches or by a
// plain Step loop.

// drain empties s's calendar with Run's batched loop or, when step is
// set, one record at a time through Step.
func drain(s *sim.Simulator, step bool) {
	if !step {
		s.Run()
		return
	}
	for s.Step() {
	}
}

// drainName labels a drain mode in subtest names.
func drainName(step bool) string {
	if step {
		return "step"
	}
	return "run"
}

// sameInstantBurst injects one row-confined worm per row of a 6×6
// mesh, all at t=0, in the given injection order, and returns the
// committed state after the calendar drains.
func sameInstantBurst(t *testing.T, order []int, step bool) (map[topology.NodeID]sim.Time, sim.Time, uint64) {
	t.Helper()
	s := sim.New()
	m := topology.NewMesh(6, 6)
	n, err := New(s, m, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Dimension-order routing keeps a worm from (0,r) to (5,r) inside
	// row r: the paths, and therefore every channel and port they
	// touch, are pairwise disjoint.
	delivered := make(map[topology.NodeID]sim.Time)
	for _, r := range order {
		dst := m.ID(5, r)
		n.MustSend(0, &Transfer{
			Source:    m.ID(0, r),
			Waypoints: []topology.NodeID{dst},
			Length:    16,
			OnDeliver: func(node topology.NodeID, at sim.Time) {
				delivered[node] = at
			},
		})
	}
	drain(s, step)
	if got := n.InFlight(); got != 0 {
		t.Fatalf("order %v step=%v: %d worms still in flight", order, step, got)
	}
	return delivered, s.Now(), s.Fired()
}

// TestInInstantCommutativity permutes the injection order of a
// same-instant burst on disjoint paths — the intra-batch hop order —
// and requires identical committed state for every permutation, under
// both drains.
func TestInInstantCommutativity(t *testing.T) {
	const rows = 6
	perms := [][]int{
		{0, 1, 2, 3, 4, 5},
		{5, 4, 3, 2, 1, 0},
	}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 6; i++ {
		perms = append(perms, rng.Perm(rows))
	}

	baseDel, baseNow, baseFired := sameInstantBurst(t, perms[0], false)
	if len(baseDel) != rows {
		t.Fatalf("baseline delivered %d of %d worms", len(baseDel), rows)
	}
	for _, step := range []bool{false, true} {
		for _, p := range perms {
			del, now, fired := sameInstantBurst(t, p, step)
			if !reflect.DeepEqual(del, baseDel) {
				t.Errorf("order %v step=%v: deliveries diverge\ngot:  %v\nwant: %v", p, step, del, baseDel)
			}
			if now != baseNow {
				t.Errorf("order %v step=%v: completion time %v, want %v", p, step, now, baseNow)
			}
			if fired != baseFired {
				t.Errorf("order %v step=%v: fired %d events, want %d", p, step, fired, baseFired)
			}
		}
	}
}

// TestSameInstantContentionIdenticalAcrossModes covers the other half
// of the in-instant contract: when same-instant worms DO contend (all
// six target one hotspot column), intra-batch order is no longer
// arbitrary — it is pinned by injection sequence — and Run's batches
// must resolve the contention exactly as a Step loop does.
func TestSameInstantContentionIdenticalAcrossModes(t *testing.T) {
	run := func(step bool) (map[topology.NodeID]sim.Time, sim.Time, uint64) {
		s := sim.New()
		m := topology.NewMesh(6, 6)
		n, err := New(s, m, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		// Every worm crosses its row into column 5, then heads to the
		// corner: the column-5 lanes are a shared hotspot, so the
		// same-instant burst serializes on lane grants.
		delivered := make(map[topology.NodeID]sim.Time)
		for r := 0; r < 6; r++ {
			src := m.ID(0, r)
			n.MustSend(0, &Transfer{
				Source:    src,
				Waypoints: []topology.NodeID{m.ID(5, 5)},
				Length:    16,
				OnDeliver: func(_ topology.NodeID, at sim.Time) {
					delivered[src] = at
				},
			})
		}
		drain(s, step)
		if got := n.InFlight(); got != 0 {
			t.Fatalf("step=%v: %d worms still in flight", step, got)
		}
		return delivered, s.Now(), s.Fired()
	}

	runDel, runNow, runFired := run(false)
	stepDel, stepNow, stepFired := run(true)
	if len(runDel) != 6 {
		t.Fatalf("delivered %d of 6 contending worms", len(runDel))
	}
	if !reflect.DeepEqual(runDel, stepDel) {
		t.Errorf("contended deliveries diverge across drains\nRun:  %v\nStep: %v", runDel, stepDel)
	}
	if runNow != stepNow || runFired != stepFired {
		t.Errorf("contended run shape diverges: Run (now=%v fired=%d) vs Step (now=%v fired=%d)",
			runNow, runFired, stepNow, stepFired)
	}
}
