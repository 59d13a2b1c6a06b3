package network

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestFailedLinkDropsDeterministicWorm: a DOR worm has exactly one
// admissible next hop; with that hop dead and no DeadWait grace the
// worm drops — no delivery fires, the drop is counted, and the
// network is left clean enough for later traffic to flow.
func TestFailedLinkDropsDeterministicWorm(t *testing.T) {
	s, m, n := testNet(t, 4, 1)
	n.FailLink(m.Channel(m.ID(1, 0), m.ID(2, 0)))
	delivered, dropped := false, sim.Time(-1)
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(3, 0)},
		Length:    16,
		OnDeliver: func(topology.NodeID, sim.Time) { delivered = true },
		OnDrop:    func(at sim.Time) { dropped = at },
	})
	s.Run()
	if delivered {
		t.Fatal("worm delivered across a dead channel")
	}
	// The header reaches node 1 at Ts+hop and finds its only hop dead.
	cfg := n.Config()
	if want := cfg.Ts + cfg.Beta; !almost(dropped, want) {
		t.Fatalf("dropped at %v, want %v", dropped, want)
	}
	if n.Dropped() != 1 || n.InFlight() != 0 {
		t.Fatalf("dropped=%d inflight=%d, want 1/0", n.Dropped(), n.InFlight())
	}
	// The degraded network still carries traffic on its live links.
	ok := false
	n.MustSend(s.Now(), &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(1, 0)},
		Length:    16,
		OnDeliver: func(topology.NodeID, sim.Time) { ok = true },
	})
	s.Run()
	if !ok {
		t.Fatal("live link no longer delivers after a drop")
	}
}

// TestAdaptiveRoutesAroundDeadLink: west-first offers both the +x and
// +y hop in the NE quadrant, so killing the +x link out of the source
// must re-route the worm minimally through +y — delivered, minimal
// length, and never touching the dead channel.
func TestAdaptiveRoutesAroundDeadLink(t *testing.T) {
	s, m, n := testNet(t, 4, 4)
	src, dst := m.ID(0, 0), m.ID(2, 2)
	dead := m.Channel(src, m.ID(1, 0))
	n.FailLink(dead)
	var gotPath []topology.NodeID
	deliveredFlag := false
	n.MustSend(0, &Transfer{
		Source:    src,
		Waypoints: []topology.NodeID{dst},
		Length:    16,
		Selector:  routing.WestFirstFor(m),
		OnPath: func(path []topology.NodeID, delivered bool) {
			gotPath = append([]topology.NodeID(nil), path...)
			deliveredFlag = delivered
		},
	})
	s.Run()
	if !deliveredFlag {
		t.Fatalf("adaptive worm not delivered; dropped=%d", n.Dropped())
	}
	if got, want := len(gotPath)-1, m.Distance(src, dst); got != want {
		t.Fatalf("path length %d, want minimal %d (%v)", got, want, gotPath)
	}
	for i := 0; i+1 < len(gotPath); i++ {
		if m.Channel(gotPath[i], gotPath[i+1]) == dead {
			t.Fatalf("path %v traverses the dead channel", gotPath)
		}
	}
}

// TestDeadWaitTimesOut: with a DeadWait grace the dead-ended worm
// parks, and only after the grace expires does it drop.
func TestDeadWaitTimesOut(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 1)
	cfg := DefaultConfig()
	cfg.DeadWait = 10
	n := MustNew(s, m, cfg)
	n.FailLink(m.Channel(m.ID(1, 0), m.ID(2, 0)))
	dropped := sim.Time(-1)
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(3, 0)},
		Length:    16,
		OnDrop:    func(at sim.Time) { dropped = at },
	})
	if n.Parked() != 0 {
		t.Fatal("worm parked before the run")
	}
	s.Run()
	if want := cfg.Ts + cfg.Beta + cfg.DeadWait; !almost(dropped, want) {
		t.Fatalf("dropped at %v, want park at %v + grace %v", dropped, cfg.Ts+cfg.Beta, cfg.DeadWait)
	}
	if n.Parked() != 0 || n.InFlight() != 0 {
		t.Fatalf("parked=%d inflight=%d after drop, want 0/0", n.Parked(), n.InFlight())
	}
}

// TestDeadWaitRecoveryDelivers: a parked worm whose channel comes
// back inside the grace window resumes and delivers; its stale park
// timeout must fire harmlessly after the worm has long drained.
func TestDeadWaitRecoveryDelivers(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 1)
	cfg := DefaultConfig()
	cfg.DeadWait = 10
	n := MustNew(s, m, cfg)
	fwd, rev := m.Channel(m.ID(1, 0), m.ID(2, 0)), m.Channel(m.ID(2, 0), m.ID(1, 0))
	n.FailLink(fwd)
	n.FailLink(rev)
	s.At(5, func() { n.RestoreLink(fwd); n.RestoreLink(rev) })
	arrived := sim.Time(-1)
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(3, 0)},
		Length:    16,
		OnDeliver: func(_ topology.NodeID, at sim.Time) { arrived = at },
		OnDrop:    func(sim.Time) { t.Error("worm dropped despite recovery inside the grace window") },
	})
	s.Run()
	if arrived < 0 {
		t.Fatal("worm never delivered")
	}
	// Parked at Ts+hop, revived at t=5, then two hops and the drain.
	cfg2 := n.Config()
	if want := 5 + 2*cfg2.Beta + 16*cfg2.Beta; !almost(arrived, want) {
		t.Fatalf("arrival %v, want %v", arrived, want)
	}
	if n.Dropped() != 0 || n.Parked() != 0 || n.InFlight() != 0 {
		t.Fatalf("dropped=%d parked=%d inflight=%d, want all 0", n.Dropped(), n.Parked(), n.InFlight())
	}
}

// TestFailNodeStopsDelivery: a destination that fails before the
// header's last hop cannot be reached — every minimal candidate leads
// into the dead node, so the worm drops regardless of selector.
func TestFailNodeStopsDelivery(t *testing.T) {
	s, m, n := testNet(t, 3, 3)
	dst := m.ID(2, 2)
	n.FailNode(dst)
	delivered := false
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{dst},
		Length:    16,
		Selector:  routing.WestFirstFor(m),
		OnDeliver: func(topology.NodeID, sim.Time) { delivered = true },
	})
	s.Run()
	if delivered {
		t.Fatal("delivered to a dead node")
	}
	if n.Dropped() != 1 {
		t.Fatalf("dropped=%d, want 1", n.Dropped())
	}
	if !n.NodeAlive(m.ID(0, 0)) || n.NodeAlive(dst) {
		t.Fatal("NodeAlive disagrees with the injected fault")
	}
}

// TestFailedLinkKicksWaiters: a worm queued FIFO on a channel that
// dies must be kicked immediately — here onto a dead end, so it
// drops — while the channel's current holder keeps draining
// (fail-stop at acquisition granularity).
func TestFailedLinkKicksWaiters(t *testing.T) {
	s, m, n := testNet(t, 4, 1)
	cfg := n.Config()
	contested := m.Channel(m.ID(1, 0), m.ID(2, 0))
	aDone, bDropped := false, sim.Time(-1)
	// A is long enough to still hold (1,0)->(2,0) when B arrives.
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(3, 0)},
		Length:    400,
		OnDone:    func(sim.Time) { aDone = true },
	})
	// B injects a beat later so A already holds the contested channel
	// when B's header reaches it and queues.
	n.MustSend(0.1, &Transfer{
		Source:    m.ID(1, 0),
		Waypoints: []topology.NodeID{m.ID(3, 0)},
		Length:    16,
		OnDrop:    func(at sim.Time) { bDropped = at },
	})
	// The failure strikes while A still holds the channel and B still
	// queues on it.
	failAt := cfg.Ts + 1
	audit := func() {
		if err := n.CheckInvariants(); err != nil {
			t.Errorf("t=%v: %v", s.Now(), err)
		}
	}
	s.At(failAt-0.5, audit)
	s.At(failAt, func() { n.FailLink(contested) })
	// After the kick A still holds the dead channel, which the fault
	// model allows; B must no longer wait on it.
	s.At(failAt, audit)
	s.Run()
	audit()
	if !aDone {
		t.Fatal("holder did not finish draining over its acquired channel")
	}
	if !almost(bDropped, failAt) {
		t.Fatalf("waiter dropped at %v, want kicked at the failure time %v", bDropped, failAt)
	}
	if n.InFlight() != 0 {
		t.Fatalf("%d worms still in flight", n.InFlight())
	}
}

// TestDropReleasesPortAndLanes: dropping a parked worm frees its
// injection port and held lanes, admitting the worms queued behind
// it. B (same one-port source) must inject after A's drop and then
// deliver over the lane A held.
func TestDropReleasesPortAndLanes(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 1)
	cfg := DefaultConfig()
	cfg.DeadWait = 10
	n := MustNew(s, m, cfg)
	n.FailLink(m.Channel(m.ID(2, 0), m.ID(3, 0)))
	arrived := sim.Time(-1)
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(3, 0)},
		Length:    16,
	})
	n.MustSend(1, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(2, 0)},
		Length:    16,
		OnDeliver: func(_ topology.NodeID, at sim.Time) { arrived = at },
	})
	s.Run()
	if n.Dropped() != 1 {
		t.Fatalf("dropped=%d, want A dropped after its grace", n.Dropped())
	}
	if arrived < 0 {
		t.Fatal("B never delivered: drop did not free the port or lanes")
	}
	// A parks at Ts+2hops holding (0,1) and (1,2); it drops DeadWait
	// later, granting B the port; B then pays Ts and sails through.
	aDrop := cfg.Ts + 2*cfg.Beta + cfg.DeadWait
	want := aDrop + cfg.Ts + 2*cfg.Beta + 16*cfg.Beta
	if !almost(arrived, want) {
		t.Fatalf("B arrived at %v, want %v", arrived, want)
	}
}

// TestPristineNetworkNeverAllocatesHealth: fault state is engaged
// lazily; a network that never sees a Fail call must not even
// allocate the health tables.
func TestPristineNetworkNeverAllocatesHealth(t *testing.T) {
	s, m, n := testNet(t, 4, 4)
	n.MustSend(0, &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 3)}, Length: 16})
	s.Run()
	if n.health != nil {
		t.Fatal("pristine run allocated health state")
	}
	if !n.LinkAlive(0) || !n.NodeAlive(0) {
		t.Fatal("pristine accessors must report everything alive")
	}
}

// TestDegradedHotPathAllocationBudget extends the warm-path pin to a
// network whose health state is engaged: the per-hop dead checks are
// nil-free but allocation-free, so a warm unicast around a dead link
// still performs zero heap allocations.
func TestDegradedHotPathAllocationBudget(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(8, 8)
	n := MustNew(s, m, DefaultConfig())
	n.FailLink(m.Channel(m.ID(0, 0), m.ID(1, 0)))
	tr := &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(7, 7)},
		Length:    64,
		Selector:  routing.WestFirstFor(m),
	}
	for i := 0; i < 32; i++ {
		n.MustSend(s.Now(), tr)
		s.Run()
	}
	avg := testing.AllocsPerRun(200, func() {
		n.MustSend(s.Now(), tr)
		s.Run()
	})
	if avg > 0 {
		t.Errorf("warm degraded unicast allocates %v per op, want 0", avg)
	}
	if n.Dropped() != 0 {
		t.Fatalf("adaptive worm dropped %d times on a routable degraded mesh", n.Dropped())
	}
}
