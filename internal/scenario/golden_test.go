package scenario_test

// Golden tests pinning the redesign's core promise: every legacy
// scenario's text and CSV output is byte-identical to the
// pre-redesign drivers. The files under testdata/ were generated by
// the ORIGINAL per-figure driver code (before the scenario registry
// existed) at the configs below; these tests
// render the same artifacts through the registry and compare bytes.
// Regenerating the goldens from current code would defeat the pin —
// treat a mismatch as a behaviour change, not a stale fixture.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/export"
	"repro/internal/scenario"
)

func golden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func runScenario(t *testing.T, name string, opts ...scenario.Option) *scenario.Result {
	t.Helper()
	spec, err := scenario.Build(name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func checkText(t *testing.T, name string, got interface{ Format() string }) {
	t.Helper()
	if want := golden(t, name); got.Format() != want {
		t.Errorf("%s: text output differs from pre-redesign golden\n--- want ---\n%s\n--- got ---\n%s",
			name, want, got.Format())
	}
}

func checkCSV(t *testing.T, name string, res *scenario.Result) {
	t.Helper()
	var buf bytes.Buffer
	if err := export.NewCSVSink(&buf).Emit(res); err != nil {
		t.Fatal(err)
	}
	if want := golden(t, name); buf.String() != want {
		t.Errorf("%s: CSV output differs from pre-redesign golden\n--- want ---\n%s\n--- got ---\n%s",
			name, want, buf.String())
	}
}

func TestGoldenFig1(t *testing.T) {
	for name, opts := range map[string][]scenario.Option{
		"fig1":  {scenario.WithSizes([]int{4, 4, 4}, []int{6, 6, 6}), scenario.WithReps(5), scenario.WithSeed(2005)},
		"fig1b": {scenario.WithSizes([]int{4, 4, 4}, []int{6, 6, 6}), scenario.WithReps(5), scenario.WithSeed(2005)},
	} {
		res := runScenario(t, name, opts...)
		checkText(t, name+".txt", res.Figure)
		checkCSV(t, name+".csv", res)
	}
}

func TestGoldenFig2AndTables(t *testing.T) {
	opts := []scenario.Option{
		scenario.WithSizes([]int{4, 4, 4}, []int{4, 4, 8}),
		scenario.WithReps(6), scenario.WithSeed(2005),
	}
	res := runScenario(t, "fig2", opts...)
	checkText(t, "fig2.txt", res.Figure)
	checkCSV(t, "fig2.csv", res)
	checkText(t, "table1.txt", res.Table1)
	checkText(t, "table2.txt", res.Table2)

	// The table scenarios share the grid; their CSV is the table.
	checkCSV(t, "table1.csv", runScenario(t, "table1", opts...))
	checkCSV(t, "table2.csv", runScenario(t, "table2", opts...))
}

func TestGoldenFig34(t *testing.T) {
	common := []scenario.Option{
		scenario.WithLoads(0.005, 0.02),
		scenario.WithBatches(4, 20, 1),
		scenario.WithSeed(2005),
	}
	res := runScenario(t, "fig3", common...)
	checkText(t, "fig3.txt", res.Figure)
	checkCSV(t, "fig3.csv", res)

	res = runScenario(t, "fig4", append([]scenario.Option{scenario.WithMesh(6, 6, 8)}, common...)...)
	checkText(t, "fig4.txt", res.Figure)
	checkCSV(t, "fig4.csv", res)
}

func TestGoldenAblations(t *testing.T) {
	for _, name := range []string{"ablation-length", "ablation-hop", "ablation-substrate", "ablation-ports"} {
		res := runScenario(t, name,
			scenario.WithMesh(4, 4, 4), scenario.WithLength(64),
			scenario.WithReps(3), scenario.WithSeed(5))
		checkText(t, name+".txt", res.Figure)
		checkCSV(t, name+".csv", res)
	}
}
