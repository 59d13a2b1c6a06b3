package network

import (
	"slices"
	"testing"

	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// heldPath derives the node sequence a worm's header traversed from
// its held lanes alone, never from its recorded path: lane ÷ vcs is
// the physical channel, whose mesh encoding (from·dims + dim)·2 + dir
// names the hop. It returns nil if a lane does not leave the node the
// previous one entered.
func heldPath(m *topology.Mesh, vcs int, src topology.NodeID, held []hold) []topology.NodeID {
	path := []topology.NodeID{src}
	for _, h := range held {
		ch := int(h.lane) / vcs
		dir, rest := ch%2, ch/2
		from, dim := topology.NodeID(rest/m.NDims()), rest%m.NDims()
		if from != path[len(path)-1] {
			return nil
		}
		path = append(path, m.Step(from, dim, 1-2*dir))
	}
	return path
}

// pathAudit sends transfers whose OnPath report it checks against the
// reporting worm's held lanes, and counts the reports.
type pathAudit struct {
	t                    *testing.T
	n                    *Network
	m                    *topology.Mesh
	reports, undelivered int
	upperLanes           int // held lanes above VC 0
}

func (a *pathAudit) send(at sim.Time, tr *Transfer) {
	var w *worm
	tr.OnPath = func(path []topology.NodeID, delivered bool) {
		a.reports++
		want := heldPath(a.m, a.n.vcs, tr.Source, w.held)
		if !slices.Equal(path, want) {
			a.t.Errorf("%s reported path %v, its held lanes trace %v", tr.Tag, path, want)
		}
		if last := tr.Waypoints[len(tr.Waypoints)-1]; delivered != (path[len(path)-1] == last) {
			a.t.Errorf("%s delivered=%t but its path %v ends at %d, last waypoint %d", tr.Tag, delivered, path, path[len(path)-1], last)
		}
		if !delivered {
			a.undelivered++
		}
		for _, h := range w.held {
			if int(h.lane)%a.n.vcs != 0 {
				a.upperLanes++
			}
		}
	}
	a.n.MustSend(at, tr)
	w = activeWorm(a.n, tr)
}

// randomTransfers sends count single-destination transfers between
// random nodes, routed by sel (nil: the network default).
func (a *pathAudit) randomTransfers(seed uint64, count int, sel routing.Selector) {
	rng := sim.NewRNG(seed, 3)
	nodes := a.m.Nodes()
	for i := 0; i < count; i++ {
		src := topology.NodeID(rng.Intn(nodes))
		dst := topology.NodeID(rng.Intn(nodes - 1))
		if dst >= src {
			dst++
		}
		a.send(rng.Uniform(0, 10), &Transfer{Source: src, Waypoints: []topology.NodeID{dst}, Length: 1 + rng.Intn(48), Selector: sel})
	}
}

// TestOnPathMatchesHeldLanes: the node sequence OnPath reports equals
// the one the worm's held lanes trace, for DOR on a mesh, adaptive
// west-first under contention, a 2-VC torus whose lanes above VC 0
// must map back to their channel, and worms dropped on a faulted mesh.
func TestOnPathMatchesHeldLanes(t *testing.T) {
	cases := []struct {
		name string
		m    *topology.Mesh
		vcs  int
		run  func(a *pathAudit)
	}{
		{"dor-mesh", topology.NewMesh(6, 5), 1, func(a *pathAudit) {
			a.randomTransfers(1, 300, nil)
			// A multidestination worm, alone once the rest drained.
			m := a.m
			a.send(100, &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 0), m.ID(3, 4), m.ID(1, 2), m.ID(5, 1)}, Length: 8})
		}},
		{"west-first", topology.NewMesh(6, 6), 1, func(a *pathAudit) {
			a.randomTransfers(2, 400, routing.NewWestFirst(a.m))
		}},
		{"torus-2vc", topology.NewTorus(6, 6), 2, func(a *pathAudit) { a.randomTransfers(3, 400, nil) }},
		{"faulted-mesh", topology.NewMesh(5, 5), 1, func(a *pathAudit) {
			a.n.FailLink(a.m.Channel(a.m.ID(1, 0), a.m.ID(2, 0)))
			a.n.FailNode(a.m.ID(2, 3))
			a.randomTransfers(4, 300, nil)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := sim.New()
			cfg := DefaultConfig()
			cfg.VCs = c.vcs
			n := MustNew(s, c.m, cfg)
			a := &pathAudit{t: t, n: n, m: c.m}
			c.run(a)
			s.Run()
			if n.InFlight() != 0 {
				t.Fatalf("%d worms still in flight", n.InFlight())
			}
			if a.reports != int(n.Injected()) {
				t.Errorf("%d OnPath reports for %d worms", a.reports, n.Injected())
			}
			if a.undelivered != int(n.Dropped()) {
				t.Errorf("%d undelivered reports, %d drops", a.undelivered, n.Dropped())
			}
			if c.name == "faulted-mesh" && n.Dropped() == 0 {
				t.Error("no worm dropped on the faulted mesh")
			}
			if c.vcs > 1 && a.upperLanes == 0 {
				t.Error("no worm held a lane above VC 0")
			}
		})
	}
}

// TestPathRecordedOnlyOnRequest: a worm whose transfer has no OnPath
// records no path, however far its header walks.
func TestPathRecordedOnlyOnRequest(t *testing.T) {
	s, m, n := testNet(t, 8, 8)
	tr := &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(7, 7)}, Length: 64}
	n.MustSend(0, tr)
	w := activeWorm(n, tr)
	for w.tcomp == 0 {
		s.Step()
	}
	if len(w.held) != 14 || w.path != nil {
		t.Errorf("completed header holds %d lanes and a path of %d nodes (capacity %d), want 14 and no path", len(w.held), len(w.path), cap(w.path))
	}
	s.Run()
}
