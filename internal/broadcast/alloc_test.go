package broadcast

import (
	"runtime"
	"testing"

	"repro/internal/topology"
)

// planAllocBudget bounds the heap allocations of one Plan + Validate.
// A plan is a handful of flat arrays (sends, waypoint arena, CSR
// index) plus planner scratch, so the count does not depend on the
// mesh size; a per-send or per-path allocation creeping back in would
// cost hundreds on 8×8×8 alone.
const planAllocBudget = 16

// TestPlanAllocationBudget pins planning's allocation count per plan
// for each of the paper's algorithms on 8×8×8 and 16×16×16, and the
// retained footprint of a large plan.
func TestPlanAllocationBudget(t *testing.T) {
	t.Run("allocs", testPlanAllocs)
	t.Run("retained", testPlanRetained)
}

func testPlanAllocs(t *testing.T) {
	for _, dims := range [][]int{{8, 8, 8}, {16, 16, 16}} {
		m := topology.NewMesh(dims...)
		src := topology.NodeID(m.Nodes()/2 + 3)
		for _, algo := range allAlgorithms() {
			allocs := testing.AllocsPerRun(20, func() {
				p, err := algo.Plan(m, src)
				if err != nil {
					t.Fatal(err)
				}
				if err := p.Validate(m); err != nil {
					t.Fatal(err)
				}
			})
			t.Logf("%s on %s: %.0f allocs per Plan+Validate", algo.Name(), m.Name(), allocs)
			if allocs > planAllocBudget {
				t.Errorf("%s on %s: %.0f allocs per Plan+Validate, budget %d",
					algo.Name(), m.Name(), allocs, planAllocBudget)
			}
		}
	}
}

// testPlanRetained pins the retained footprint: a validated 16³ RD
// plan (4,095 sends) is the plan struct, the sends, one waypoint arena
// and the CSR index. The heap is sampled around several plans and the
// delta averaged, so stray garbage freed meanwhile stays in the noise.
func testPlanRetained(t *testing.T) {
	const plans = 4
	m := topology.NewMesh(16, 16, 16)
	kept := make([]*Plan, 0, plans)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < plans; i++ {
		p, err := NewRD().Plan(m, topology.NodeID(i))
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Validate(m); err != nil {
			t.Fatal(err)
		}
		kept = append(kept, p)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	bytes := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / plans
	objects := float64(int64(after.HeapObjects)-int64(before.HeapObjects)) / plans
	runtime.KeepAlive(kept)
	runtime.KeepAlive(m)
	t.Logf("16x16x16 RD plan retains %d B in %.1f objects", bytes, objects)
	if bytes > 300_000 || objects > 8 {
		t.Errorf("16x16x16 RD plan retains %d B in %.1f objects, budget 300000 B in 8", bytes, objects)
	}
}
