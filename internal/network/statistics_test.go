package network

import (
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

func TestChannelOccupancyAccounting(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 1)
	n := MustNew(s, m, DefaultConfig())
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: []topology.NodeID{m.ID(3, 0)},
		Length:    100,
	})
	s.Run()

	cfg := n.Config()
	// Hop i is granted at Ts + i·β and released when the tail clears
	// it at tdone - (2-i)·β.
	tdone := cfg.Ts + 3*cfg.Beta + 100*cfg.Beta
	for i := 0; i < 3; i++ {
		st := n.ChannelStatsFor(m.Channel(m.ID(i, 0), m.ID(i+1, 0)))
		if st.Acquires != 1 {
			t.Fatalf("hop %d: acquires = %d", i, st.Acquires)
		}
		wantBusy := (tdone - float64(2-i)*cfg.Beta) - (cfg.Ts + float64(i)*cfg.Beta)
		if math.Abs(st.BusyTime-wantBusy) > 1e-9 {
			t.Fatalf("hop %d: busy = %v, want %v", i, st.BusyTime, wantBusy)
		}
		if u := st.Utilization(s.Now()); u <= 0 || u > 1 {
			t.Fatalf("hop %d: utilization = %v", i, u)
		}
	}
}

// TestDroppedWormOccupancy: a dropped worm releases every lane it held
// at the drop instant, so hop i counts busy from its grant at
// Ts + i·β until then.
func TestDroppedWormOccupancy(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 1)
	n := MustNew(s, m, DefaultConfig())
	n.FailLink(m.Channel(m.ID(2, 0), m.ID(3, 0)))
	n.MustSend(0, &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 0)}, Length: 100})
	s.Run()
	if n.Dropped() != 1 {
		t.Fatalf("dropped %d worms, want 1", n.Dropped())
	}
	cfg := n.Config()
	drop := cfg.Ts + 2*cfg.Beta // the header reaches (2,0) and finds its only hop dead
	for i := 0; i < 2; i++ {
		st := n.ChannelStatsFor(m.Channel(m.ID(i, 0), m.ID(i+1, 0)))
		if want := drop - (cfg.Ts + float64(i)*cfg.Beta); st.Acquires != 1 || math.Abs(st.BusyTime-want) > 1e-9 {
			t.Errorf("hop %d: %d acquires busy %v, want 1 busy %v", i, st.Acquires, st.BusyTime, want)
		}
	}
}

func TestHottestChannels(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 4)
	n := MustNew(s, m, DefaultConfig())
	// Two worms share channel (0,0)->(1,0); one uses (1,0)->(2,0) too.
	n.MustSend(0, &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(2, 0)}, Length: 50})
	n.MustSend(0, &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(1, 0)}, Length: 50})
	s.Run()

	hot := n.HottestChannels(10)
	if len(hot) < 2 {
		t.Fatalf("hot channels = %d", len(hot))
	}
	shared := m.Channel(m.ID(0, 0), m.ID(1, 0))
	if hot[0].Channel != shared {
		t.Fatalf("hottest channel = %d, want shared %d", hot[0].Channel, shared)
	}
	if hot[0].Acquires != 2 {
		t.Fatalf("shared channel acquires = %d", hot[0].Acquires)
	}
	for i := 1; i < len(hot); i++ {
		if hot[i].BusyTime > hot[i-1].BusyTime {
			t.Fatal("hot channels not sorted")
		}
	}
	// Requesting fewer returns fewer.
	if got := len(n.HottestChannels(1)); got != 1 {
		t.Fatalf("HottestChannels(1) = %d entries", got)
	}
}

func TestMeanUtilizationIdleNetwork(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 4)
	n := MustNew(s, m, DefaultConfig())
	if u := n.MeanUtilization(); u != 0 {
		t.Fatalf("idle utilization = %v", u)
	}
}

func TestUtilizationRisesWithLoad(t *testing.T) {
	util := func(gap sim.Time) float64 {
		s := sim.New()
		m := topology.NewMesh(4, 4)
		n := MustNew(s, m, DefaultConfig())
		rng := sim.NewRNG(9, 1)
		at := sim.Time(0)
		for i := 0; i < 200; i++ {
			at += gap
			src := topology.NodeID(rng.Intn(m.Nodes()))
			dst := topology.NodeID(rng.Intn(m.Nodes() - 1))
			if dst >= src {
				dst++
			}
			n.MustSend(at, &Transfer{Source: src, Waypoints: []topology.NodeID{dst}, Length: 64})
		}
		s.Run()
		return n.MeanUtilization()
	}
	light, heavy := util(10), util(0.5)
	if heavy <= light {
		t.Fatalf("utilization did not rise with load: light %v heavy %v", light, heavy)
	}
}
