package network

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestTorusUnicastHotPathAllocationBudget extends the zero-alloc pin
// to the torus hot path: warm unicast over wraparound routes, with
// two dateline virtual channels and the torus default router
// (dateline-DOR via a VCPolicy), must not allocate — the lane
// indexing, VC-class computation and wrap stepping all stay on the
// stack.
func TestTorusUnicastHotPathAllocationBudget(t *testing.T) {
	for _, step := range []bool{false, true} {
		t.Run(drainName(step), func(t *testing.T) {
			s := sim.New()
			m := topology.NewTorus(8, 8)
			cfg := DefaultConfig()
			cfg.VCs = 2
			n := MustNew(s, m, cfg)
			// (1,1) -> (6,6) takes the wrap links in both dimensions
			// (modular distance 3+3 vs 5+5) and crosses both datelines.
			tr := &Transfer{
				Source:    m.ID(1, 1),
				Waypoints: []topology.NodeID{m.ID(6, 6)},
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
				t.Errorf("warm torus unicast send+drain allocates %v per op, want 0", avg)
			}
			if n.InFlight() != 0 {
				t.Fatalf("%d worms still in flight", n.InFlight())
			}
		})
	}
}

// TestChannelAppenderWrapRoutesAllocationFree pins the routing side
// of the torus hot path: walking a wraparound route through
// AppendNextChannels into a reused buffer costs nothing for every
// torus selector.
func TestChannelAppenderWrapRoutesAllocationFree(t *testing.T) {
	m := topology.NewTorus(8, 8)
	appenders := map[string]routing.ChannelAppender{
		"dateline-dor":     routing.NewDatelineDOR(m),
		"west-first-torus": routing.NewTorusWestFirst(m),
		"odd-even-torus":   routing.NewTorusOddEven(m),
	}
	src, dst := m.ID(1, 1), m.ID(6, 6) // wraps in both dimensions
	buf := make([]routing.Hop, 0, 8)
	for name, ap := range appenders {
		avg := testing.AllocsPerRun(200, func() {
			cur := src
			for cur != dst {
				buf = ap.AppendNextChannels(buf[:0], cur, dst)
				cur = buf[0].Node
			}
		})
		if avg > 0 {
			t.Errorf("%s: walking a wrap route allocates %v per op, want 0", name, avg)
		}
	}
}

// TestVirtualChannelLanesAreIndependent checks the VC mechanism at
// the unit level: on a 1-VC ring two same-channel worms serialise,
// on a 2-VC ring the dateline classes put them on different lanes and
// they stream concurrently.
func TestVirtualChannelLanesAreIndependent(t *testing.T) {
	// Ring of 4: worm A runs 1->2->3, worm B runs 2->3->0 via the wrap
	// edge. Both need channel 2->3; B grabs it first (one hop in), so
	// on one VC worm A blocks behind B's 400-flit body. A's hop is
	// class 1 (no crossing ahead), B's is class 0 (wrap ahead): with
	// two lanes they stream concurrently.
	run := func(vcs int) (doneA, doneB sim.Time) {
		s := sim.New()
		m := topology.NewTorus(4)
		cfg := DefaultConfig()
		cfg.Ts = 0.1
		cfg.VCs = vcs
		n := MustNew(s, m, cfg)
		n.MustSend(0, &Transfer{Source: 1, Waypoints: []topology.NodeID{3}, Length: 400,
			OnDone: func(at sim.Time) { doneA = at }})
		n.MustSend(0, &Transfer{Source: 2, Waypoints: []topology.NodeID{0}, Length: 400,
			OnDone: func(at sim.Time) { doneB = at }})
		s.Run()
		return doneA, doneB
	}
	a1, b1 := run(1)
	a2, b2 := run(2)
	if b1 != b2 {
		t.Errorf("unblocked worm B changed with VCs: %v vs %v", b1, b2)
	}
	if a2 >= a1 {
		t.Errorf("worm A did not benefit from a second lane: 1 VC %v, 2 VCs %v", a1, a2)
	}
	if a2 != b2 {
		t.Errorf("with two lanes the worms should stream concurrently: A %v, B %v", a2, b2)
	}
}

// TestWraplessTorusKeepsPlainDOR pins the default-router choice: a
// torus whose every extent is below 3 has no wraparound links, so
// there is no ring to protect — it keeps plain DOR and its worms may
// use every lane adaptively instead of being parked in the dateline
// policy's class-0 share.
func TestWraplessTorusKeepsPlainDOR(t *testing.T) {
	cfg := DefaultConfig()
	cfg.VCs = 2
	n := MustNew(sim.New(), topology.NewTorus(2, 2), cfg)
	if _, dateline := n.dor.(routing.VCPolicy); dateline {
		t.Error("wrapless torus installed a dateline router")
	}
	n = MustNew(sim.New(), topology.NewTorus(2, 4), cfg)
	if _, dateline := n.dor.(routing.VCPolicy); !dateline {
		t.Error("torus with a wrapped dimension did not install the dateline router")
	}
}

// TestSingleVCBehaviourUnchanged pins that VCs=1 is bit-identical to
// the pre-VC network: the field only resizes state when >= 2.
func TestSingleVCBehaviourUnchanged(t *testing.T) {
	run := func(cfg Config) []sim.Time {
		s := sim.New()
		m := topology.NewTorus(4, 4)
		n := MustNew(s, m, cfg)
		var times []sim.Time
		for i := 0; i < 8; i++ {
			src := m.ID(i%4, (i*3)%4)
			dst := m.ID((i+2)%4, i%4)
			if src == dst {
				continue
			}
			n.MustSend(sim.Time(i), &Transfer{Source: src, Waypoints: []topology.NodeID{dst}, Length: 32,
				OnDone: func(at sim.Time) { times = append(times, at) }})
		}
		s.Run()
		return times
	}
	base := run(DefaultConfig())
	cfg := DefaultConfig()
	cfg.VCs = 1
	got := run(cfg)
	if len(base) != len(got) {
		t.Fatalf("completion counts differ: %d vs %d", len(base), len(got))
	}
	for i := range base {
		if base[i] != got[i] {
			t.Errorf("completion %d: %v (unset) vs %v (VCs=1)", i, base[i], got[i])
		}
	}
}
