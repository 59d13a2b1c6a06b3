package broadcast

import (
	"testing"

	"repro/internal/network"
	"repro/internal/topology"
)

// paperAlgos returns the four planners; EDN is skipped by callers on
// non-3D shapes.
func paperAlgos() []Algorithm {
	return []Algorithm{NewRD(), NewEDN(), NewDB(), NewAB()}
}

// TestTorusPlansValidateAndCover lifts the old Wrap() rejections: on
// tori every algorithm's plan must validate (causal sanity + full
// coverage) from every source.
func TestTorusPlansValidateAndCover(t *testing.T) {
	for _, dims := range [][]int{{4, 4}, {3, 3, 3}, {4, 4, 4}, {5, 3, 4}, {2, 2, 4}} {
		m := topology.NewTorus(dims...)
		for _, algo := range paperAlgos() {
			if algo.Name() == "EDN" && m.NDims() != 3 {
				continue
			}
			for src := 0; src < m.Nodes(); src++ {
				plan, err := algo.Plan(m, topology.NodeID(src))
				if err != nil {
					t.Fatalf("%s on %s src %d: %v", algo.Name(), m.Name(), src, err)
				}
				if err := plan.Validate(m); err != nil {
					t.Fatalf("%s on %s src %d: %v", algo.Name(), m.Name(), src, err)
				}
			}
		}
	}
}

// TestTorusPlansShareCanonicalOrientation pins the deadlock-critical
// design decision recorded in frame.go: the coded paths of DB and AB
// use ONE canonical unwrap frame for every source, so concurrent
// broadcasts share identical face-flood paths exactly as on the mesh.
// Structurally this means the torus plan from any source equals the
// plan the mesh construction produces on the unwrapped twin.
func TestTorusPlansShareCanonicalOrientation(t *testing.T) {
	m := topology.NewTorus(4, 4, 4)
	twin := m.Unwrapped()
	for _, algo := range []Algorithm{NewDB(), NewAB()} {
		for _, src := range []topology.NodeID{0, 17, 42, 63} {
			torusPlan, err := algo.Plan(m, src)
			if err != nil {
				t.Fatal(err)
			}
			meshPlan, err := algo.Plan(twin, src)
			if err != nil {
				t.Fatal(err)
			}
			if len(torusPlan.Sends) != len(meshPlan.Sends) {
				t.Fatalf("%s src %d: %d sends on torus, %d on mesh twin",
					algo.Name(), src, len(torusPlan.Sends), len(meshPlan.Sends))
			}
			for i := range torusPlan.Sends {
				ts, ms := torusPlan.Sends[i], meshPlan.Sends[i]
				if ts.Step != ms.Step || ts.Path.Source != ms.Path.Source ||
					len(ts.Path.Waypoints) != len(ms.Path.Waypoints) {
					t.Fatalf("%s src %d send %d differs between torus and mesh twin", algo.Name(), src, i)
				}
				for j := range ts.Path.Waypoints {
					if ts.Path.Waypoints[j] != ms.Path.Waypoints[j] {
						t.Fatalf("%s src %d send %d waypoint %d differs", algo.Name(), src, i, j)
					}
				}
			}
		}
	}
}

// TestRemapPlanTranslates exercises the non-identity frame path the
// canonical anchor never takes: a shifted frame must translate every
// node and keep the plan valid on the torus.
func TestRemapPlanTranslates(t *testing.T) {
	m := topology.NewTorus(4, 4)
	f := topology.NewFrame(m, m.ID(2, 3))
	virt := f.Virtual()
	src := f.ToVirtual(m.ID(2, 3))
	p, err := DB{}.planMesh(virt, src)
	if err != nil {
		t.Fatal(err)
	}
	remapped := remapPlan(p, f)
	if remapped.Source != m.ID(2, 3) {
		t.Errorf("source %d, want %d", remapped.Source, m.ID(2, 3))
	}
	if err := remapped.Validate(m); err != nil {
		t.Fatal(err)
	}
}

// TestRunSingleOnTorus runs every algorithm end to end on a torus
// network with the torus VC default and checks the broadcast
// completes — the "no baseline-only fallback" acceptance criterion at
// the engine level.
func TestRunSingleOnTorus(t *testing.T) {
	m := topology.NewTorus(4, 4, 4)
	cfg := network.DefaultConfig()
	cfg.VCs = 2
	mesh := topology.NewMesh(4, 4, 4)
	for _, algo := range paperAlgos() {
		for _, src := range []topology.NodeID{0, 21, 63} {
			r, err := RunSingle(m, algo, src, cfg, 64)
			if err != nil {
				t.Fatalf("%s from %d: %v", algo.Name(), src, err)
			}
			// The wraparound halves worst-case distances, so no torus
			// broadcast should be slower than its mesh counterpart by
			// more than scheduling noise; check the latency is sane and
			// positive rather than pinning exact numbers.
			if r.Latency() <= 0 {
				t.Errorf("%s from %d: non-positive latency %v", algo.Name(), src, r.Latency())
			}
			rm, err := RunSingle(mesh, algo, src, network.DefaultConfig(), 64)
			if err != nil {
				t.Fatal(err)
			}
			if r.Latency() > 2*rm.Latency() {
				t.Errorf("%s from %d: torus latency %v more than doubles mesh %v",
					algo.Name(), src, r.Latency(), rm.Latency())
			}
		}
	}
}

// TestMulticastOnTorus delivers to a scattered subset over wraparound
// routes.
func TestMulticastOnTorus(t *testing.T) {
	m := topology.NewTorus(4, 4)
	cfg := network.DefaultConfig()
	cfg.VCs = 2
	dests := []topology.NodeID{m.ID(3, 3), m.ID(0, 2), m.ID(2, 0), m.ID(1, 3)}
	arr, _, err := RunMulticast(m, NewMulticast(2), m.ID(1, 1), dests, cfg, 32)
	if err != nil {
		t.Fatal(err)
	}
	if len(arr) != len(dests) {
		t.Fatalf("%d arrivals, want %d", len(arr), len(dests))
	}
	for i, at := range arr {
		if at <= 0 {
			t.Errorf("destination %d arrival %v", dests[i], at)
		}
	}
}
