package broadcast

import (
	"slices"
	"sort"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// cloneSends deep-copies sends, waypoints included.
func cloneSends(sends []Send) []Send {
	out := make([]Send, len(sends))
	for i, s := range sends {
		out[i] = s
		out[i].Path.Waypoints = slices.Clone(s.Path.Waypoints)
	}
	return out
}

func sameSend(a, b Send) bool {
	return a.Step == b.Step && a.Adaptive == b.Adaptive &&
		a.Path.Source == b.Path.Source && a.Path.Relays == b.Path.Relays &&
		slices.Equal(a.Path.Waypoints, b.Path.Waypoints)
}

// inOneArena reports whether the sends' waypoint windows, in emission
// order, tile one backing array back to back, each capped at its own
// length.
func inOneArena(sends []Send) bool {
	for i := range sends {
		w := sends[i].Path.Waypoints
		if cap(w) != len(w) {
			return false
		}
		if i > 0 {
			prev := sends[i-1].Path.Waypoints
			end := unsafe.Add(unsafe.Pointer(unsafe.SliceData(prev)), uintptr(len(prev))*unsafe.Sizeof(prev[0]))
			if end != unsafe.Pointer(unsafe.SliceData(w)) {
				return false
			}
		}
	}
	return true
}

// TestValidateSortsSendsStably pins the plan format for every
// algorithm and every source on a 4×4×4 mesh and torus: planners lay
// their waypoints out in one arena, Validate leaves Sends as the
// stable (source, step) permutation of the emission order, and a
// second Validate changes nothing.
func TestValidateSortsSendsStably(t *testing.T) {
	for _, m := range []*topology.Mesh{topology.NewMesh(4, 4, 4), topology.NewTorus(4, 4, 4)} {
		for _, algo := range allAlgorithms() {
			for src := topology.NodeID(0); int(src) < m.Nodes(); src++ {
				p, err := algo.Plan(m, src)
				if err != nil {
					t.Fatal(err)
				}
				if !inOneArena(p.Sends) {
					t.Fatalf("%s on %s from %d: waypoints are not one capped arena", algo.Name(), m.Name(), src)
				}
				want := cloneSends(p.Sends)
				sort.SliceStable(want, func(i, j int) bool {
					if want[i].Path.Source != want[j].Path.Source {
						return want[i].Path.Source < want[j].Path.Source
					}
					return want[i].Step < want[j].Step
				})
				if err := p.Validate(m); err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(p.Sends, want, sameSend) {
					t.Fatalf("%s on %s from %d: Sends after Validate are not the stable (source, step) order",
						algo.Name(), m.Name(), src)
				}
				again, start := cloneSends(p.Sends), slices.Clone(p.start)
				if err := p.Validate(m); err != nil {
					t.Fatal(err)
				}
				if !slices.EqualFunc(p.Sends, again, sameSend) || !slices.Equal(p.start, start) {
					t.Fatalf("%s on %s from %d: second Validate changed the plan", algo.Name(), m.Name(), src)
				}
				for v := 0; v+1 < len(p.start); v++ {
					for _, s := range p.Sends[p.start[v]:p.start[v+1]] {
						if int(s.Path.Source) != v {
							t.Fatalf("%s on %s from %d: index run of node %d holds a send from %d",
								algo.Name(), m.Name(), src, v, s.Path.Source)
						}
					}
				}
			}
		}
	}
}

// TestHandBuiltPlansIndexAndExecute: plans assembled by hand, with
// each path's waypoints in its own slice and the sends out of
// (source, step) order, still validate and execute — indexed by
// Validate, or lazily by Execute when never validated.
func TestHandBuiltPlansIndexAndExecute(t *testing.T) {
	m := topology.NewMesh(4, 2)
	build := func() *Plan {
		return &Plan{Algorithm: "hand", Source: 0, Steps: 3, Sends: []Send{
			{Step: 3, Path: core.ChainPath(1, 5)},
			{Step: 2, Path: core.ChainPath(3, 7, 6)},
			{Step: 1, Path: core.ChainPath(0, 1, 2, 3)},
			{Step: 2, Path: core.ChainPath(0, 4)},
		}}
	}
	for _, validate := range []bool{true, false} {
		p := build()
		if validate {
			if err := p.Validate(m); err != nil {
				t.Fatal(err)
			}
		}
		s := sim.New()
		net := network.MustNew(s, m, network.DefaultConfig())
		r, err := Execute(net, p, Options{Length: 8})
		if err != nil {
			t.Fatal(err)
		}
		s.Run()
		if !r.Done {
			t.Fatalf("validate=%v: %d/%d informed", validate, r.Informed, m.Nodes())
		}
		order := make([]topology.NodeID, len(p.Sends))
		for i, snd := range p.Sends {
			order[i] = snd.Path.Source
		}
		if !slices.Equal(order, []topology.NodeID{0, 0, 1, 3}) || p.Sends[0].Step != 1 {
			t.Fatalf("validate=%v: sends not indexed in (source, step) order: %+v", validate, p.Sends)
		}
	}
}

// TestCachedPlanSharedAcrossGoroutines: a cached plan arrives indexed,
// so concurrent executions on separate networks only read it. Run
// with -race to check that nothing writes to a published plan.
func TestCachedPlanSharedAcrossGoroutines(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	for _, algo := range allAlgorithms() {
		plan, err := PlanCached(m, algo, 21)
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		latencies := make([]sim.Time, 4)
		for g := range latencies {
			wg.Add(1)
			go func() {
				defer wg.Done()
				s := sim.New()
				cfg := network.DefaultConfig()
				cfg.Ports = algo.Ports()
				net := network.MustNew(s, m, cfg)
				r, err := Execute(net, plan, Options{Length: 16, Adaptive: routing.WestFirstFor(m)})
				if err != nil {
					t.Error(err)
					return
				}
				s.Run()
				latencies[g] = r.Latency()
			}()
		}
		wg.Wait()
		for g, l := range latencies {
			if l <= 0 || l != latencies[0] {
				t.Errorf("%s: execution %d latency %v, first %v", algo.Name(), g, l, latencies[0])
			}
		}
	}
}
