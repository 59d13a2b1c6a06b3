package scenario_test

import (
	"context"
	"strings"
	"testing"

	"repro/internal/scenario"
)

// Shape tests: the paper's qualitative claims, asserted on reduced
// runs of the registered scenarios. The full-size runs live in
// cmd/paperbench and the root benchmarks; the goldens pin the exact
// bytes.

// quickReps keeps the shape tests fast.
const quickReps = 6

// runFigure builds a registered scenario with opts and runs it.
func runFigure(t *testing.T, name string, opts ...scenario.Option) *scenario.Result {
	t.Helper()
	spec, err := scenario.Build(name, opts...)
	if err != nil {
		t.Fatal(err)
	}
	res, err := scenario.Run(context.Background(), spec)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return res
}

// TestFig1Shape asserts the paper's Fig. 1 qualitative claims: DB and
// AB beat RD and EDN at every size, RD and EDN degrade as the network
// grows while DB and AB stay nearly flat, and EDN ≈ DB at 4×4×4.
func TestFig1Shape(t *testing.T) {
	fig := runFigure(t, "fig1", scenario.WithReps(quickReps), scenario.WithSeed(11)).Figure
	series := seriesMap(fig)
	for _, n := range []float64{64, 512, 1000, 4096} {
		rd, edn, db, ab := at(t, series, "RD", n), at(t, series, "EDN", n), at(t, series, "DB", n), at(t, series, "AB", n)
		if db >= rd || ab >= rd {
			t.Errorf("N=%g: proposed (DB %.2f, AB %.2f) not below RD %.2f", n, db, ab, rd)
		}
		if db >= edn && ab >= edn {
			t.Errorf("N=%g: neither DB %.2f nor AB %.2f below EDN %.2f", n, db, ab, edn)
		}
	}
	// Scalability: RD grows substantially from 64 to 4096; DB stays
	// within 25%.
	if at(t, series, "RD", 4096) < 1.5*at(t, series, "RD", 64) {
		t.Error("RD latency did not grow with network size")
	}
	if at(t, series, "DB", 4096) > 1.25*at(t, series, "DB", 64) {
		t.Error("DB latency not size-insensitive")
	}
	// EDN and DB comparable at 4x4x4 (paper: same step count there).
	edn64, db64 := at(t, series, "EDN", 64), at(t, series, "DB", 64)
	if edn64 > 1.6*db64 {
		t.Errorf("EDN (%.2f) not comparable to DB (%.2f) at N=64", edn64, db64)
	}
}

// TestFig1StartupLatencyCompresses asserts §3.1: a 10× smaller Ts
// shrinks every algorithm's latency.
func TestFig1StartupLatencyCompresses(t *testing.T) {
	opts := []scenario.Option{scenario.WithSizes([]int{8, 8, 8}), scenario.WithReps(quickReps), scenario.WithSeed(11)}
	big := runFigure(t, "fig1", opts...).Figure
	small := runFigure(t, "fig1b", opts...).Figure
	bigS, smallS := seriesMap(big), seriesMap(small)
	for _, algo := range []string{"RD", "EDN", "DB", "AB"} {
		hi, lo := at(t, bigS, algo, 512), at(t, smallS, algo, 512)
		if lo >= hi {
			t.Errorf("%s: Ts=0.15 latency %.2f not below Ts=1.5 latency %.2f", algo, lo, hi)
		}
	}
	if small.ID != "Fig.1b" {
		t.Errorf("startup figure ID = %q", small.ID)
	}
}

// TestFig2Shape asserts the node-level claims: the coded-path
// algorithms have lower arrival-time CV than RD and EDN at every
// size.
func TestFig2Shape(t *testing.T) {
	series := seriesMap(runFigure(t, "fig2", scenario.WithReps(12), scenario.WithSeed(13)).Figure)
	for _, n := range []float64{64, 256, 512, 1024} {
		rd, edn := at(t, series, "RD", n), at(t, series, "EDN", n)
		db, ab := at(t, series, "DB", n), at(t, series, "AB", n)
		if worstProposed := max(db, ab); worstProposed >= rd && worstProposed >= edn {
			t.Errorf("N=%g: proposed CVs (DB %.3f, AB %.3f) not below both baselines (RD %.3f, EDN %.3f)",
				n, db, ab, rd, edn)
		}
	}
}

// TestTablesImprovementsPositiveAndGrow asserts Tables 1–2: DB and AB
// improve over both baselines at every size, and the improvement over
// RD grows from the smallest to the largest network.
func TestTablesImprovementsPositiveAndGrow(t *testing.T) {
	// The growth comparison needs the paper's full 40 replications
	// and averaging over several independent experiment sets;
	// sampling noise at a single seed can flatten it.
	seeds := []uint64{13, 99, 2005}
	var firstDB, lastDB float64
	for _, seed := range seeds {
		res := runFigure(t, "fig2", scenario.WithReps(40), scenario.WithSeed(seed))
		for _, tbl := range []*scenario.CVTable{res.Table1, res.Table2} {
			if len(tbl.Columns) != 4 {
				t.Fatalf("%s has %d columns", tbl.ID, len(tbl.Columns))
			}
			for _, col := range tbl.Columns {
				for _, row := range col.Rows {
					if row.Improvement <= 0 {
						t.Errorf("%s at %s (seed %d): %s improvement %.1f%% not positive",
							tbl.ID, col.Mesh, seed, row.Baseline, row.Improvement)
					}
				}
			}
		}
		firstDB += res.Table1.Columns[0].Rows[0].Improvement
		lastDB += res.Table1.Columns[3].Rows[0].Improvement
	}
	// Growth with size is asserted for DB only: the paper's own text
	// (§3.2) notes AB's longer third-step paths raise its CV in
	// larger networks, contradicting its Table 2; our reproduction
	// sides with the text (see EXPERIMENTS.md).
	n := float64(len(seeds))
	if lastDB/n <= firstDB/n {
		t.Errorf("Table 1: mean DB improvement over RD did not grow with size (%.1f%% -> %.1f%%)",
			firstDB/n, lastDB/n)
	}
}

// TestFig34Shape asserts §3.3 on a reduced sweep: latency rises with
// load, RD is worst at high load, and AB stays lowest.
func TestFig34Shape(t *testing.T) {
	lo, hi := 0.005, 0.05
	fig := runFigure(t, "fig3", scenario.WithLoads(lo, hi), scenario.WithBatches(5, 40, 1), scenario.WithSeed(17)).Figure
	series := seriesMap(fig)
	for _, algo := range []string{"RD", "EDN", "DB", "AB"} {
		if at(t, series, algo, hi) <= at(t, series, algo, lo)*0.8 {
			t.Errorf("%s: latency fell with load (%.2f -> %.2f)",
				algo, at(t, series, algo, lo), at(t, series, algo, hi))
		}
	}
	rdHi := at(t, series, "RD", hi)
	for _, algo := range []string{"EDN", "DB", "AB"} {
		if at(t, series, algo, hi) >= rdHi {
			t.Errorf("%s (%.2f) not below RD (%.2f) at high load", algo, at(t, series, algo, hi), rdHi)
		}
	}
	abHi := at(t, series, "AB", hi)
	if abHi >= at(t, series, "DB", hi) || abHi >= at(t, series, "EDN", hi) {
		t.Errorf("AB (%.2f) not best at high load", abHi)
	}
	if fig.ID != "Fig.3" {
		t.Errorf("figure ID = %q", fig.ID)
	}
}

// TestFigureFormat checks the text rendering used by cmd/paperbench.
func TestFigureFormat(t *testing.T) {
	fig := &scenario.Figure{
		ID:     "Fig.X",
		Title:  "test",
		XLabel: "nodes",
		Series: []scenario.Series{
			{Label: "RD", Points: []scenario.Point{{X: 64, Y: 1.5}, {X: 512, Y: 2.5}}},
			{Label: "DB", Points: []scenario.Point{{X: 64, Y: 1.0}}},
		},
	}
	out := fig.Format()
	for _, want := range []string{"Fig.X", "RD", "DB", "64", "512", "1.5000", "-"} {
		if !strings.Contains(out, want) {
			t.Errorf("format output missing %q:\n%s", want, out)
		}
	}
	if fig.String() != out {
		t.Error("String() != Format()")
	}
}

// runAblation runs a registered ablation on a 4×4×4 mesh with 64-flit
// messages and three replications.
func runAblation(t *testing.T, name string) *scenario.Figure {
	t.Helper()
	return runFigure(t, name, scenario.WithMesh(4, 4, 4), scenario.WithLength(64),
		scenario.WithReps(3), scenario.WithSeed(5)).Figure
}

func TestAblationMessageLength(t *testing.T) {
	// Latency must rise with message length for every algorithm
	// (each step pays L·β).
	for _, s := range runAblation(t, "ablation-length").Series {
		first, last := s.Points[0], s.Points[len(s.Points)-1]
		if last.Y <= first.Y {
			t.Errorf("%s: latency did not grow with length (%.2f -> %.2f)", s.Label, first.Y, last.Y)
		}
	}
}

func TestAblationHopDelay(t *testing.T) {
	for _, s := range runAblation(t, "ablation-hop").Series {
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Y < s.Points[i-1].Y {
				t.Errorf("%s: latency fell as hop delay rose (%v)", s.Label, s.Points)
			}
		}
	}
}

func TestAblationAdaptiveSubstrate(t *testing.T) {
	fig := runAblation(t, "ablation-substrate")
	if len(fig.Series) != 3 {
		t.Fatalf("substrates = %d, want 3", len(fig.Series))
	}
	// On an idle network all three substrates must complete with
	// comparable latency (adaptivity only matters under contention).
	for _, s := range fig.Series {
		for _, p := range s.Points {
			if p.Y <= 0 {
				t.Errorf("%s: non-positive latency", s.Label)
			}
		}
	}
}

func TestAblationPortModel(t *testing.T) {
	series := seriesMap(runAblation(t, "ablation-ports"))
	// EDN's doubling phase needs the three-port router: one port must
	// be slower or equal, and strictly slower for EDN.
	edn := series["EDN"]
	if len(edn.Points) != 2 {
		t.Fatalf("EDN points = %v", edn.Points)
	}
	onePort, threePort := edn.Points[0].Y, edn.Points[1].Y
	if threePort >= onePort {
		t.Errorf("EDN did not benefit from three ports (%.2f vs %.2f)", threePort, onePort)
	}
	// RD never uses more than one port per step, so extra ports must
	// not change its latency.
	rd := series["RD"]
	if rd.Points[0].Y != rd.Points[1].Y {
		t.Errorf("RD latency changed with ports (%v)", rd.Points)
	}
}

// TestProgressReportsCompleteAndMonotone pins the live-progress
// contract the CLIs rely on: done counts arrive serialised, never
// regress, and end exactly at total.
func TestProgressReportsCompleteAndMonotone(t *testing.T) {
	last, calls := 0, 0
	runFigure(t, "fig1", scenario.WithSizes([]int{4, 4, 4}), scenario.WithReps(5),
		scenario.WithSeed(3), scenario.WithProcs(4),
		scenario.WithProgress(func(done, total int) {
			calls++
			if total != 4*1*5 {
				t.Errorf("total = %d, want 20", total)
			}
			if done <= last {
				t.Errorf("done went %d -> %d", last, done)
			}
			last = done
		}))
	if calls != 20 || last != 20 {
		t.Errorf("progress: %d calls ending at %d, want 20/20", calls, last)
	}
}

func seriesMap(f *scenario.Figure) map[string]scenario.Series {
	out := map[string]scenario.Series{}
	for _, s := range f.Series {
		out[s.Label] = s
	}
	return out
}

func at(t *testing.T, series map[string]scenario.Series, label string, x float64) float64 {
	t.Helper()
	s, ok := series[label]
	if !ok {
		t.Fatalf("no series %q", label)
	}
	for _, p := range s.Points {
		if p.X == x {
			return p.Y
		}
	}
	t.Fatalf("series %q has no point at %g", label, x)
	return 0
}
