package scenario_test

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// shrink returns run options that make any registered scenario cheap
// enough for the round-trip matrix: tiny meshes, two sweep values,
// minimal replication.
func shrink(spec *scenario.Spec) {
	spec.Reps = 2
	spec.Seed = 7
	if spec.Axis == scenario.AxisSize {
		spec.Sizes = [][]int{{3, 3, 3}, {4, 4, 4}}
	} else {
		spec.Dims = []int{4, 4, 4}
		if len(spec.Xs) > 2 {
			spec.Xs = spec.Xs[:2]
		}
	}
	if spec.Workload == scenario.Contended {
		spec.Reps = 4
	}
	if spec.Workload == scenario.Mixed {
		spec.Xs = []float64{0.005, 0.02}
		spec.Batches, spec.BatchSize, spec.Warmup = 2, 10, 1
	}
}

// TestRegistryRoundTrip runs EVERY registered scenario at tiny
// replication — the guarantee that registration alone makes a
// scenario executable. Run under -race (CI does) this doubles as a
// data-race probe over every workload's fan-out path.
func TestRegistryRoundTrip(t *testing.T) {
	names := scenario.Names()
	if len(names) < 14 {
		t.Fatalf("registry has %d scenarios (%v), want the 11 legacy + new ones", len(names), names)
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			spec, err := scenario.Build(name)
			if err != nil {
				t.Fatal(err)
			}
			shrink(&spec)
			res, err := scenario.Run(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if res.Figure == nil || len(res.Figure.Series) == 0 {
				t.Fatalf("%s: empty figure", name)
			}
			for _, s := range res.Figure.Series {
				if len(s.Points) == 0 {
					t.Errorf("%s: series %s has no points", name, s.Label)
				}
			}
			if res.Figure.Format() == "" {
				t.Errorf("%s: empty rendering", name)
			}
			switch res.Spec.Artifact {
			case scenario.ArtifactTable1, scenario.ArtifactTable2:
				if res.Table1 == nil || res.Table2 == nil {
					t.Errorf("%s: table artifact without tables", name)
				}
			}
		})
	}
}

// TestRunDeterministicAcrossProcs pins the orchestration guarantee:
// Run's output — the figure and, for contended runs over the paper's
// algorithms, both tables — is byte-identical for any worker count.
// Run under -race (CI does) it doubles as a data-race probe over the
// fan-out path.
func TestRunDeterministicAcrossProcs(t *testing.T) {
	for _, name := range []string{
		"fig1", "fig1b", "fig2", "table1", "table2", "fig3", "fig4",
		"ablation-length", "ablation-hop", "ablation-substrate", "ablation-ports",
		"fig1-ts", "fig2-torus", "fig2-torus-vc", "saturation", "saturation-torus",
		"fig2-faults", "faults-adaptive", "faults-transient",
	} {
		t.Run(name, func(t *testing.T) {
			render := func(procs int) string {
				spec, err := scenario.Build(name, scenario.WithProcs(procs))
				if err != nil {
					t.Fatal(err)
				}
				shrink(&spec)
				spec.Procs = procs
				res, err := scenario.Run(context.Background(), spec)
				if err != nil {
					t.Fatal(err)
				}
				out := res.Figure.Format()
				if res.Table1 != nil {
					out += res.Table1.Format() + res.Table2.Format()
				}
				return out
			}
			want := render(1)
			for _, procs := range []int{4, 0} {
				if got := render(procs); got != want {
					t.Errorf("procs=%d output differs from serial\n--- procs=1 ---\n%s\n--- procs=%d ---\n%s",
						procs, want, procs, got)
				}
			}
		})
	}
}

// TestZeroValueSpecsRunnable pins the Spec doc contract: the zero
// value plus a Workload resolves to a runnable paper-default spec
// (shrunk here only to keep the test fast).
func TestZeroValueSpecsRunnable(t *testing.T) {
	for _, w := range []scenario.Workload{scenario.Uncontended, scenario.Contended, scenario.Mixed} {
		spec := scenario.Spec{Workload: w}
		shrink(&spec)
		if _, err := scenario.Run(context.Background(), spec); err != nil {
			t.Errorf("zero-value %s spec failed: %v", w, err)
		}
	}
}

func TestRunHonoursCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	spec, err := scenario.Build("fig1")
	if err != nil {
		t.Fatal(err)
	}
	shrink(&spec)
	if _, err := scenario.Run(ctx, spec); err != context.Canceled {
		t.Fatalf("cancelled Run returned %v, want context.Canceled", err)
	}
}

func TestBuildUnknownNameListsAvailable(t *testing.T) {
	_, err := scenario.Build("fig99")
	if err == nil {
		t.Fatal("expected error for unknown scenario")
	}
	for _, name := range []string{"fig1", "fig2", "ablation-hop"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %q", err, name)
		}
	}
}

func TestValidateRejectsContradictorySpecs(t *testing.T) {
	bad := []scenario.Spec{
		{Workload: "quantum"},
		{Workload: scenario.Mixed, Axis: scenario.AxisPorts},
		{Algorithms: []string{"XYZ"}},
		{Axis: scenario.AxisSubstrate, Algorithms: []string{"AB", "DB"}},
		{Workload: scenario.Uncontended, Artifact: scenario.ArtifactTable1},
		// Table projections need the paper's four algorithms; with a
		// subset the run would emit nil tables into every sink.
		{Workload: scenario.Contended, Artifact: scenario.ArtifactTable1, Algorithms: []string{"RD", "EDN", "DB"}},
		{Topo: "hyperloop"},
		// VC sweep values must be integers >= 1: the run loop
		// truncates to int and the network reads 0 as 1, so these
		// would silently mislabel their points.
		{Workload: scenario.Contended, Axis: scenario.AxisVCs, Xs: []float64{0.5, 1}},
		{Workload: scenario.Uncontended, Axis: scenario.AxisVCs, Dims: []int{3, 3}, Xs: []float64{1.5}},
		// Active faults need the contended workload; the faults axis
		// sweeps integer link counts; churn needs heal timings; Topos
		// and the degradation metrics are fault-axis-only.
		{Workload: scenario.Uncontended, Faults: &scenario.FaultSpec{Links: 4}},
		{Workload: scenario.Contended, Axis: scenario.AxisFaults, Xs: []float64{0, 2.5}},
		{Workload: scenario.Contended, Axis: scenario.AxisFaults, Faults: &scenario.FaultSpec{Strikes: 2}},
		{Workload: scenario.Contended, Topos: []string{scenario.TopoMesh, scenario.TopoTorus}},
		{Workload: scenario.Contended, Axis: scenario.AxisFaults, Topos: []string{"hyperloop"}},
		{Workload: scenario.Contended, Metric: scenario.MetricCoverage},
		{Workload: scenario.Contended, Metric: scenario.MetricInflation, Axis: scenario.AxisFaults, Xs: []float64{2, 4}},
		{Workload: scenario.Contended, Axis: scenario.AxisFaults, Artifact: scenario.ArtifactTable1},
		// Shapes the mesh constructors panic on: a zero extent, and
		// more nodes than the division-free coordinates handle exactly.
		{Workload: scenario.Uncontended, Axis: scenario.AxisLength, Dims: []int{0, 4}, Xs: []float64{16}},
		{Workload: scenario.Uncontended, Axis: scenario.AxisSize, Sizes: [][]int{{4, 4}, {1 << 16, 1 << 16}}},
	}
	for i, spec := range bad {
		if _, err := scenario.Run(context.Background(), spec); err == nil {
			t.Errorf("spec %d: invalid spec ran without error", i)
		}
	}
}

func TestWithMeshCollapsesSizeSweep(t *testing.T) {
	spec, err := scenario.Build("fig2", scenario.WithMesh(4, 4, 8), scenario.WithReps(40))
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Sizes) != 1 || spec.Sizes[0][2] != 8 {
		t.Fatalf("WithMesh did not collapse the size sweep: %v", spec.Sizes)
	}
	if spec.Reps != 40 {
		t.Fatalf("WithReps not applied: %d", spec.Reps)
	}
}

func TestSinksEmitPrimaryArtifact(t *testing.T) {
	spec, err := scenario.Build("fig2",
		scenario.WithSizes([]int{3, 3, 3}), scenario.WithReps(4), scenario.WithSeed(7))
	if err != nil {
		t.Fatal(err)
	}
	var text, js bytes.Buffer
	res, err := scenario.RunTo(context.Background(), spec,
		scenario.NewTextSink(&text), scenario.NewJSONSink(&js))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(text.String(), "Fig.2: ") {
		t.Errorf("text sink output %q does not start with the figure heading", text.String())
	}
	var doc struct {
		Name   string           `json:"name"`
		Figure *scenario.Figure `json:"figure"`
		Table1 *scenario.CVTable
	}
	if err := json.Unmarshal(js.Bytes(), &doc); err != nil {
		t.Fatalf("JSON sink produced invalid JSON: %v", err)
	}
	if doc.Name != "fig2" || doc.Figure == nil || len(doc.Figure.Series) != 4 {
		t.Errorf("JSON sink round-trip lost data: %+v", doc)
	}
	if doc.Table1 == nil {
		t.Error("JSON sink dropped the table projection")
	}
	if res.Table1 == nil || res.Table2 == nil {
		t.Error("contended run over the paper's algorithms missing table projections")
	}
}
