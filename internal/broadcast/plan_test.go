package broadcast

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// paperMeshes are the 3D mesh sizes the paper's evaluation uses.
var paperMeshes = [][]int{
	{4, 4, 4},    // 64
	{4, 4, 16},   // 256
	{8, 8, 8},    // 512
	{8, 8, 16},   // 1024
	{10, 10, 10}, // 1000 (Fig. 1)
	{16, 16, 8},  // 2048 (Fig. 4)
	{16, 16, 16}, // 4096
}

// oddMeshes stress planners with non-power, truncated and degenerate
// extents.
var oddMeshes = [][]int{
	{2, 2, 2}, {3, 3, 3}, {5, 7, 3}, {6, 2, 9},
	{1, 4, 4}, {4, 1, 4}, {4, 4, 1}, {1, 1, 8}, {7, 1, 1},
	{3, 5, 2}, {9, 9, 9}, {2, 8, 5},
}

func allAlgorithms() []Algorithm {
	return []Algorithm{NewRD(), NewEDN(), NewDB(), NewAB()}
}

func sourcesFor(m *topology.Mesh, seed uint64) []topology.NodeID {
	srcs := []topology.NodeID{0, topology.NodeID(m.Nodes() - 1), topology.NodeID(m.Nodes() / 2)}
	rng := sim.NewRNG(seed, 7)
	for i := 0; i < 3; i++ {
		srcs = append(srcs, topology.NodeID(rng.Intn(m.Nodes())))
	}
	return srcs
}

// TestPlansValidate checks that every algorithm produces a valid plan
// (full coverage, causal step order) from corner, center and random
// sources on every paper mesh and a battery of odd-shaped meshes.
func TestPlansValidate(t *testing.T) {
	shapes := append(append([][]int{}, paperMeshes...), oddMeshes...)
	for _, dims := range shapes {
		m := topology.NewMesh(dims...)
		for _, algo := range allAlgorithms() {
			for _, src := range sourcesFor(m, 1) {
				plan, err := algo.Plan(m, src)
				if err != nil {
					t.Fatalf("%s on %s from %d: %v", algo.Name(), m.Name(), src, err)
				}
				if err := plan.Validate(m); err != nil {
					t.Errorf("%s on %s from %d: %v", algo.Name(), m.Name(), src, err)
				}
			}
		}
	}
}

// TestPlanStepCounts pins the published step counts: RD's ceil(log2 N)
// on power-of-two meshes, EDN's k+m+4, DB's 4 and AB's 3.
func TestPlanStepCounts(t *testing.T) {
	cases := []struct {
		dims []int
		rd   int
		edn  int
	}{
		{[]int{4, 4, 4}, 6, 4},
		{[]int{4, 4, 16}, 8, 6},
		{[]int{8, 8, 8}, 9, 6},
		{[]int{8, 8, 16}, 10, 7},
		{[]int{16, 16, 8}, 11, 7},
		{[]int{16, 16, 16}, 12, 8},
	}
	for _, tc := range cases {
		m := topology.NewMesh(tc.dims...)
		if got := NewRD().StepsFor(m); got != tc.rd {
			t.Errorf("RD steps on %s = %d, want %d", m.Name(), got, tc.rd)
		}
		if got := NewEDN().StepsFor(m); got != tc.edn {
			t.Errorf("EDN steps on %s = %d, want %d", m.Name(), got, tc.edn)
		}
		if got := NewDB().StepsFor(m); got != 4 {
			t.Errorf("DB steps on %s = %d, want 4", m.Name(), got)
		}
		if got := NewAB().StepsFor(m); got != 3 {
			t.Errorf("AB steps on %s = %d, want 3", m.Name(), got)
		}
	}
}

// TestPlanPortDiscipline verifies that no plan injects more
// simultaneous sends per node per step than its router model allows.
func TestPlanPortDiscipline(t *testing.T) {
	for _, dims := range paperMeshes {
		m := topology.NewMesh(dims...)
		for _, algo := range allAlgorithms() {
			limit := algo.Ports()
			if algo.Name() == "AB" {
				// AB serialises its corner relays on one port within
				// a step; up to two injections per labelled step.
				limit = 2
			}
			for _, src := range sourcesFor(m, 2) {
				plan, err := algo.Plan(m, src)
				if err != nil {
					t.Fatalf("%s: %v", algo.Name(), err)
				}
				if got := plan.MaxSendsPerNodeStep(); got > limit {
					t.Errorf("%s on %s from %d: %d sends per node-step, limit %d",
						algo.Name(), m.Name(), src, got, limit)
				}
			}
		}
	}
}

// TestExecuteCoversEveryNode runs each algorithm end to end on the
// simulator and checks every node receives the message exactly once,
// with sane arrival times.
func TestExecuteCoversEveryNode(t *testing.T) {
	for _, dims := range [][]int{{4, 4, 4}, {8, 8, 8}, {5, 7, 3}, {4, 4, 16}} {
		m := topology.NewMesh(dims...)
		for _, algo := range allAlgorithms() {
			for _, src := range sourcesFor(m, 3)[:4] {
				r, err := RunSingle(m, algo, src, network.DefaultConfig(), 64)
				if err != nil {
					t.Fatalf("%s on %s from %d: %v", algo.Name(), m.Name(), src, err)
				}
				if !r.Done {
					t.Fatalf("%s on %s from %d: incomplete", algo.Name(), m.Name(), src)
				}
				for id, at := range r.Arrival {
					if at < 0 {
						t.Errorf("%s on %s: node %d never received", algo.Name(), m.Name(), id)
					}
					if topology.NodeID(id) != src && at <= r.Start {
						t.Errorf("%s on %s: node %d arrival %v not after start", algo.Name(), m.Name(), id, at)
					}
				}
				if r.Latency() <= 0 {
					t.Errorf("%s on %s: non-positive latency %v", algo.Name(), m.Name(), r.Latency())
				}
			}
		}
	}
}

// TestMemoSharesPlans: goroutines asking one memo for the same (mesh,
// algorithm, source) all get one plan, equal to PlanCached's; other
// meshes, algorithms and sources get their own; a nil memo plans
// afresh. Run with -race: the memo is shared by a run's workers.
func TestMemoSharesPlans(t *testing.T) {
	mesh, torus := topology.NewMesh(4, 4, 4), topology.NewTorus(4, 4, 4)
	algos := []Algorithm{NewRD(), NewAB()}
	var memo Memo
	const workers, srcs = 4, 8
	got := make([][]*Plan, workers)
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 2*len(algos)*srcs; k++ {
				m := []*topology.Mesh{mesh, torus}[k/(len(algos)*srcs)]
				p, err := memo.Plan(m, algos[k/srcs%len(algos)], topology.NodeID(k%srcs))
				if err != nil {
					t.Error(err)
					return
				}
				got[g] = append(got[g], p)
			}
		}()
	}
	wg.Wait()
	seen := make(map[*Plan]bool)
	for k, p := range got[0] {
		m := []*topology.Mesh{mesh, torus}[k/(len(algos)*srcs)]
		want, err := PlanCached(m, algos[k/srcs%len(algos)], topology.NodeID(k%srcs))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) {
			t.Errorf("key %d: memoized plan differs from PlanCached's", k)
		}
		if seen[p] {
			t.Errorf("key %d: plan shared with another key", k)
		}
		seen[p] = true
		for g := 1; g < workers; g++ {
			if got[g][k] != p {
				t.Errorf("key %d: goroutine %d got another plan", k, g)
			}
		}
	}
	var none *Memo
	a, _ := none.Plan(mesh, algos[0], 0)
	b, _ := none.Plan(mesh, algos[0], 0)
	if a == b {
		t.Error("a nil memo shared a plan")
	}
}
