package network

import (
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// TestCheckInvariantsCatchesCorruption builds a frozen contended state
// (A holds the channel B queues on), confirms the audit passes on it,
// then breaks one invariant at a time and expects the audit to say so.
func TestCheckInvariantsCatchesCorruption(t *testing.T) {
	corruptions := []struct {
		name    string
		corrupt func(n *Network, a, b *worm)
	}{
		{"holder released", func(n *Network, a, _ *worm) { n.lane(a.held[0].lane).holder = nil }},
		{"foreign holder", func(n *Network, a, b *worm) { n.lane(a.held[0].lane).holder = b }},
		{"waiter misnamed", func(_ *Network, a, b *worm) { b.waiting = a.held[0].lane }},
		{"waiter not queued", func(n *Network, _, b *worm) { qpop(&n.lane(b.waiting).qtail) }},
		{"lost completion", func(n *Network, _, _ *worm) { n.finished++ }},
		{"waiter on dead lane", func(n *Network, _, b *worm) { n.ensureHealth().linkDown[int(b.waiting)/n.vcs] = true }},
		{"port oversubscribed", func(n *Network, a, _ *worm) { n.port(a.t.Source).inUse = n.nports + 1 }},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			s, m, n := testNet(t, 4, 1)
			n.MustSend(0, &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 0)}, Length: 400})
			n.MustSend(0.1, &Transfer{Source: m.ID(1, 0), Waypoints: []topology.NodeID{m.ID(3, 0)}, Length: 16})
			if err := s.RunUntil(n.Config().Ts + 1); err != nil {
				t.Fatal(err)
			}
			b, a := n.activeHead, n.activeHead.activeNext
			if b.waiting == topology.InvalidChannel || len(a.held) < 2 {
				t.Fatalf("setup: want A holding and B queued, got %v", n.Stuck())
			}
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("consistent state rejected: %v", err)
			}
			tc.corrupt(n, a, b)
			if err := n.CheckInvariants(); err == nil {
				t.Error("corruption not detected")
			}
		})
	}
}

// TestCheckInvariantsLazyStore runs the mid-run audit on the paged
// store, where lanes are reached through allocated pages only.
func TestCheckInvariantsLazyStore(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(6, 6)
	cfg := DefaultConfig()
	cfg.Store = StoreLazy
	n := MustNew(s, m, cfg)
	rng := sim.NewRNG(11, 5)
	for i := 0; i < 400; i++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		dst := topology.NodeID(rng.Intn(m.Nodes() - 1))
		if dst >= src {
			dst++
		}
		n.MustSend(rng.Uniform(0, 20), &Transfer{Source: src, Waypoints: []topology.NodeID{dst}, Length: 1 + rng.Intn(64)})
	}
	for at := sim.Time(0.5); at < 30; at++ {
		s.At(at, func() {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("t=%v: %v", s.Now(), err)
			}
		})
	}
	s.Run()
	if err := n.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
