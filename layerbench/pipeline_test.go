package main

import (
	"testing"

	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/scenario"
	"repro/internal/topology"
)

// smallBenches are the two simulation workloads shrunk to test size,
// at a seed with no stored reference.
func smallBenches() map[string]simBench {
	return map[string]simBench{
		"saturation": &saturation{
			m:    topology.NewMesh(4, 4, 4),
			seed: 11,
			cfg: func(seed uint64) metrics.ContendedConfig {
				return metrics.ContendedConfig{Net: network.DefaultConfig(), Length: 16, Broadcasts: 6, Interarrival: 2, Seed: seed}
			},
			algos: scenario.PaperAlgorithms(),
		},
		"fig1-large": &fig1Large{
			m: topology.NewMesh(4, 4, 4), seed: 11, cfg: network.DefaultConfig(), algos: scenario.PaperAlgorithms(),
		},
	}
}

func TestComposedPipelineMatchesEntryPoints(t *testing.T) {
	for name, w := range smallBenches() {
		for i := 0; i < 3; i++ {
			ref, err := w.run(i)
			if err != nil {
				t.Fatalf("%s op %d: %v", name, i, err)
			}
			tr := newTracer()
			root := tr.begin("bench.op", -1, int32(i))
			got, runs, err := w.compose(i, tr, root, newPlanObserver())
			tr.end(root)
			if err != nil {
				t.Fatalf("%s op %d composed: %v", name, i, err)
			}
			if err := parity(ref, got); err != nil {
				t.Errorf("%s op %d: %v", name, i, err)
			}
			if len(runs) != len(ref) {
				t.Errorf("%s op %d: %d simulations for %d algorithms", name, i, len(runs), len(ref))
			}
			var c opCounts
			c.addRuns(runs)
			if c.events == 0 || c.worms == 0 || c.batches == 0 || uint64(c.messages) != c.worms {
				t.Errorf("%s op %d: counts %+v", name, i, c)
			}
			for _, stage := range []string{"sim.New", "network.New", "broadcast.PlanCached", "broadcast.Execute", "sim.Run"} {
				if len(durations(tr.snapshot(), stage)) == 0 {
					t.Errorf("%s op %d: no %s span", name, i, stage)
				}
			}
		}
	}
}

func TestParityFailsWhenStageSkipped(t *testing.T) {
	for name, w := range smallBenches() {
		ref, err := w.run(1)
		if err != nil {
			t.Fatal(err)
		}
		for _, stage := range []string{"broadcast.Execute", "sim.Run"} {
			tr := newTracer()
			tr.skip = stage
			got, _, _ := w.compose(1, tr, -1, newPlanObserver())
			if err := parity(ref, got); err == nil {
				t.Errorf("%s: parity passed with %s skipped", name, stage)
			}
		}
	}
}

func TestStoredReferences(t *testing.T) {
	sat := newSaturation(defaultSeed)
	got, err := sat.run(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := sat.checkReference(0, got); err != nil {
		t.Errorf("saturation at the default seed: %v", err)
	}
	got[2].Events++
	if sat.checkReference(0, got) == nil {
		t.Error("saturation reference check accepted a changed event count")
	}

	fig := newFig1Large(defaultSeed)
	if got, err = fig.run(0); err != nil {
		t.Fatal(err)
	}
	if err := fig.checkReference(0, got); err != nil {
		t.Errorf("fig1-large at the default seed: %v", err)
	}
	if err := newFig1Large(heldOutSeed).checkReference(0, nil); err != nil {
		t.Errorf("a seed without stored values must not be checked against them: %v", err)
	}
}

func TestWalkPlanCountsHops(t *testing.T) {
	w := smallBenches()["fig1-large"].(*fig1Large)
	tr := newTracer()
	_, runs, err := w.compose(0, tr, -1, newPlanObserver())
	if err != nil {
		t.Fatal(err)
	}
	dor, wf, err := newWalkers(w.m)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		steps, err := walkPlan(w.m, r.plan, dor, wf)
		if err != nil {
			t.Fatal(err)
		}
		// Every send crosses at least one hop, and no more than the
		// mesh diameter per waypoint.
		hops := 0
		for _, s := range r.plan.Sends {
			hops += len(s.Path.Waypoints) * 9
		}
		if steps < len(r.plan.Sends) || steps > hops {
			t.Errorf("%s: %d steps for %d sends", r.plan.Algorithm, steps, len(r.plan.Sends))
		}
	}
}
