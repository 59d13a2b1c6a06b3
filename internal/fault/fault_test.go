package fault

import (
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// TestLinksEnumeration pins the canonical link enumeration: a 3x3
// mesh has 12 undirected links, a 3x3 torus 18 (each ring closes),
// and every entry maps to two valid directed channels with A < B.
func TestLinksEnumeration(t *testing.T) {
	cases := []struct {
		m    *topology.Mesh
		want int
	}{
		{topology.NewMesh(3, 3), 12},
		{topology.NewTorus(3, 3), 18},
		{topology.NewMesh(4, 1), 3},
	}
	for _, c := range cases {
		links := Links(c.m)
		if len(links) != c.want {
			t.Errorf("%s: %d links, want %d", c.m.Name(), len(links), c.want)
		}
		seen := map[Link]bool{}
		for _, l := range links {
			if l.A >= l.B {
				t.Errorf("%s: link %v not ordered", c.m.Name(), l)
			}
			if seen[l] {
				t.Errorf("%s: duplicate link %v", c.m.Name(), l)
			}
			seen[l] = true
			if c.m.Channel(l.A, l.B) == topology.InvalidChannel || c.m.Channel(l.B, l.A) == topology.InvalidChannel {
				t.Errorf("%s: link %v has no directed channel", c.m.Name(), l)
			}
		}
	}
}

// TestRandomLinksNest is the generator guarantee the monotonicity
// suite builds on: for one (mesh, seed), the k-link plan's fault set
// is a subset of the k+1-link plan's.
func TestRandomLinksNest(t *testing.T) {
	m := topology.NewMesh(4, 4)
	var prev map[topology.ChannelID]bool
	for k := 0; k <= 8; k++ {
		p, err := RandomLinks(m, 7, k, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(p.Events) != 2*k {
			t.Fatalf("k=%d: %d events, want %d", k, len(p.Events), 2*k)
		}
		cur := map[topology.ChannelID]bool{}
		for _, e := range p.Events {
			if e.Kind != LinkDown {
				t.Fatalf("k=%d: unexpected %s event", k, e.Kind)
			}
			cur[e.Channel] = true
		}
		for ch := range prev {
			if !cur[ch] {
				t.Fatalf("k=%d lost channel %d from the k=%d plan", k, ch, k-1)
			}
		}
		prev = cur
	}
	// Different seeds must give different permutations (overwhelmingly).
	a, _ := RandomLinks(m, 1, 6, 0)
	b, _ := RandomLinks(m, 2, 6, 0)
	same := len(a.Events) == len(b.Events)
	for i := range a.Events {
		if same && a.Events[i].Channel != b.Events[i].Channel {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 produced identical link permutations")
	}
}

// TestRandomNodesExcludes: the node generator never fails an excluded
// node and errors when asked for more nodes than remain eligible.
func TestRandomNodesExcludes(t *testing.T) {
	m := topology.NewMesh(3, 3)
	src := m.ID(1, 1)
	p, err := RandomNodes(m, 3, 8, 0, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 8 {
		t.Fatalf("%d events, want 8", len(p.Events))
	}
	for _, e := range p.Events {
		if e.Node == src {
			t.Fatal("generator failed the excluded node")
		}
	}
	if _, err := RandomNodes(m, 3, 9, 0, src); err == nil {
		t.Fatal("want error when k exceeds the eligible node count")
	}
}

// TestValidateRejects pins the up-front plan validation.
func TestValidateRejects(t *testing.T) {
	m := topology.NewMesh(3, 3)
	bad := []Plan{
		{Events: []Event{{Kind: LinkDown, At: -1, Channel: 0}}},
		{Events: []Event{{Kind: LinkDown, At: 0, Channel: topology.ChannelID(m.ChannelSlots())}}},
		{Events: []Event{{Kind: NodeDown, At: 0, Node: topology.NodeID(m.Nodes())}}},
		{Events: []Event{{Kind: Kind(99), At: 0}}},
	}
	for i := range bad {
		if err := bad[i].Validate(m); err == nil {
			t.Errorf("plan %d validated, want error", i)
		}
	}
	var empty *Plan
	if err := empty.Validate(m); err != nil {
		t.Errorf("nil plan: %v", err)
	}
	if !empty.Empty() || !(&Plan{}).Empty() {
		t.Error("nil/zero plans must report Empty")
	}
}

// TestApplySchedulesThroughCalendar: an applied plan's events fire in
// (due, seq) order interleaved with traffic — the link is up for a
// send before the down event and down for one after it.
func TestApplySchedulesThroughCalendar(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 1)
	n := network.MustNew(s, m, network.DefaultConfig())
	ch := m.Channel(m.ID(1, 0), m.ID(2, 0))
	p := &Plan{Events: []Event{
		{Kind: LinkDown, At: 10, Channel: ch},
		{Kind: LinkUp, At: 20, Channel: ch},
	}}
	if err := p.Apply(n); err != nil {
		t.Fatal(err)
	}
	checks := 0
	s.At(5, func() {
		checks++
		if !n.LinkAlive(ch) {
			t.Error("link dead before its down event")
		}
	})
	s.At(15, func() {
		checks++
		if n.LinkAlive(ch) {
			t.Error("link alive between down and up")
		}
	})
	s.At(25, func() {
		checks++
		if !n.LinkAlive(ch) {
			t.Error("link dead after its up event")
		}
	})
	s.Run()
	if checks != 3 {
		t.Fatalf("ran %d checks, want 3", checks)
	}
}

// TestApplyAllocatesOnce: Apply builds every event's firing record in
// one allocation, however many events the plan holds (64 failed links
// are 128 events), once the calendar has grown to fit them.
func TestApplyAllocatesOnce(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(8, 8, 8)
	n := network.MustNew(s, m, network.DefaultConfig())
	p, err := RandomLinks(m, 2005, 64, 0)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		s.Reset()
		if err := p.Apply(n); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Errorf("Apply of %d events made %v allocations, want 1", len(p.Events), allocs)
	}
}

// TestEmptyPlanLeavesNetworkPristine: applying an empty plan must not
// engage the network's fault machinery at all (the golden identity
// tests depend on this being a guaranteed no-op).
func TestEmptyPlanLeavesNetworkPristine(t *testing.T) {
	s := sim.New()
	m := topology.NewMesh(4, 4)
	n := network.MustNew(s, m, network.DefaultConfig())
	before := s.Pending()
	if err := (&Plan{}).Apply(n); err != nil {
		t.Fatal(err)
	}
	var nilPlan *Plan
	if err := nilPlan.Apply(n); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != before {
		t.Fatal("empty plan scheduled calendar events")
	}
}

// TestChurnWaves pins the churn generator: strikes waves of k links,
// each wave's downs at at+i·period and ups upAfter later, fresh links
// per wave while the permutation lasts.
func TestChurnWaves(t *testing.T) {
	m := topology.NewMesh(4, 4)
	const k, strikes = 3, 4
	p, err := Churn(m, 11, k, 2, 5, 10, strikes)
	if err != nil {
		t.Fatal(err)
	}
	// Each wave: k links × 2 directions × (down + up).
	if want := strikes * k * 2 * 2; len(p.Events) != want {
		t.Fatalf("%d events, want %d", len(p.Events), want)
	}
	downs := map[sim.Time]map[topology.ChannelID]bool{}
	for _, e := range p.Events {
		switch e.Kind {
		case LinkDown:
			if downs[e.At] == nil {
				downs[e.At] = map[topology.ChannelID]bool{}
			}
			downs[e.At][e.Channel] = true
		case LinkUp:
			// Every up pairs a down exactly upAfter earlier.
			if downs[e.At-5] == nil || !downs[e.At-5][e.Channel] {
				t.Fatalf("up of channel %d at %g has no down at %g", e.Channel, e.At, e.At-5)
			}
		}
	}
	for i := 0; i < strikes; i++ {
		at := sim.Time(2 + 10*i)
		if len(downs[at]) != 2*k {
			t.Fatalf("wave %d at %g downs %d channels, want %d", i, at, len(downs[at]), 2*k)
		}
	}
	// Consecutive waves use disjoint links while the permutation lasts.
	for ch := range downs[2] {
		if downs[12][ch] {
			t.Fatalf("waves 0 and 1 share channel %d", ch)
		}
	}
	if _, err := Churn(m, 11, 3, 0, 0, 10, 2); err == nil {
		t.Fatal("want error for non-positive up-after")
	}
}
