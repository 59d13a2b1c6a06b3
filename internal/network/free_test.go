package network_test

import (
	"testing"

	"repro/internal/broadcast"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestShortWormsDoNotKeepLongCapacity runs AB, whose coded-path worms
// average over a hundred hops at 16×16×16, and then RD, whose worms
// average two, on one recycled network. Every worm comes back on its
// inline store: none keeps the capacity an AB path grew it to.
func TestShortWormsDoNotKeepLongCapacity(t *testing.T) {
	m := topology.NewMesh(16, 16, 16)
	net := network.MustNew(sim.New(), m, network.DefaultConfig())
	src := topology.NodeID(80)
	for _, algo := range []broadcast.Algorithm{broadcast.NewAB(), broadcast.NewRD()} {
		plan, err := algo.Plan(m, src)
		if err != nil {
			t.Fatal(err)
		}
		r, err := broadcast.Execute(net, plan, broadcast.Options{Length: 100, Adaptive: routing.WestFirstFor(m)})
		if err != nil {
			t.Fatal(err)
		}
		net.Sim().Run()
		if !r.Done {
			t.Fatalf("%s: %d/%d informed", algo.Name(), r.Informed, m.Nodes())
		}
		if err := net.Reset(); err != nil {
			t.Fatal(err)
		}
		net.Sim().Reset()
	}
	worms, held, deliver := network.FreeWormCaps(net)
	if worms == 0 {
		t.Fatal("no worm came back to the free list")
	}
	if held > network.WormInline || deliver > network.WormInline {
		t.Errorf("a free worm keeps held capacity %d and deliver capacity %d, want at most %d", held, deliver, network.WormInline)
	}
}
