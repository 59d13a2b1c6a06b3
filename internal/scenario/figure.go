// Package scenario is the unified experiment API of the reproduction:
// one declarative [Spec] describes a study — topology, algorithm set,
// workload, sweep axis, replication and orchestration knobs — a
// process-wide [Registry] names every figure, table and ablation of
// the paper (plus scenarios the paper never ran), and one [Run] loop
// executes any spec by fanning its independent simulations out over a
// [runner.Pool] with context cancellation.
//
// The package deliberately separates the specification from the
// executor, in the spirit of interpreted discrete-event control
// models: adding a scenario means registering a spec, never writing a
// driver. Output is byte-identical to the per-figure drivers the
// registry replaced (pinned by golden tests in testdata/).
//
// Results stream into pluggable [Sink]s: [NewTextSink] renders the
// paper's aligned tables, [NewJSONSink] emits machine-readable JSON,
// and internal/export provides the CSV sink.
package scenario

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/metrics"
	"repro/internal/stats"
)

// Interval is the 95% confidence interval type points carry.
type Interval = stats.Interval

// ImprovementRow is one cell group of the paper's Tables 1 and 2.
type ImprovementRow = metrics.ImprovementRow

// Point is one (x, y) sample of a series.
type Point struct {
	X, Y float64
	// CI is the 95% confidence interval behind Y when the point
	// aggregates replications; the zero Interval means no interval
	// is available (single-shot points).
	CI Interval
}

// Series is one algorithm's curve in a figure.
type Series struct {
	Label  string
	Points []Point
}

// Figure is a reproduced paper figure: one series per algorithm.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	YLabel string
	Series []Series
}

// String implements fmt.Stringer via Format.
func (f *Figure) String() string { return f.Format() }

// HasCI reports whether any point of the figure carries a finite
// confidence interval (at least two replications behind it).
func (f *Figure) HasCI() bool {
	for _, s := range f.Series {
		for _, p := range s.Points {
			if p.CI.N > 1 && !math.IsInf(p.CI.HalfWide, 0) {
				return true
			}
		}
	}
	return false
}

// Format renders the figure as an aligned text table, x values as
// rows and algorithms as columns — the shape of the paper's plots.
// When the figure carries confidence intervals, each cell prints
// mean±half-width of the 95% interval.
func (f *Figure) Format() string {
	width, ci := 12, f.HasCI()
	if ci {
		width = 20
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %s\n", f.ID, f.Title)
	fmt.Fprintf(&b, "%-14s", f.XLabel)
	for _, s := range f.Series {
		fmt.Fprintf(&b, "%*s", width, s.Label)
	}
	b.WriteByte('\n')

	xs := map[float64]bool{}
	for _, s := range f.Series {
		for _, p := range s.Points {
			xs[p.X] = true
		}
	}
	sorted := make([]float64, 0, len(xs))
	for x := range xs {
		sorted = append(sorted, x)
	}
	sort.Float64s(sorted)

	for _, x := range sorted {
		fmt.Fprintf(&b, "%-14g", x)
		for _, s := range f.Series {
			p, ok := lookupPoint(s, x)
			if !ok {
				fmt.Fprintf(&b, "%*s", width, "-")
				continue
			}
			if ci && p.CI.N > 1 && !math.IsInf(p.CI.HalfWide, 0) {
				fmt.Fprintf(&b, "%*s", width, fmt.Sprintf("%.4f±%.3f", p.Y, p.CI.HalfWide))
			} else {
				fmt.Fprintf(&b, "%*.4f", width, p.Y)
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func lookupPoint(s Series, x float64) (Point, bool) {
	for _, p := range s.Points {
		if p.X == x {
			return p, true
		}
	}
	return Point{}, false
}

// CVTable is one of the paper's Tables 1/2: per mesh size, the CV of
// the baselines and the improvement of the proposed algorithm.
type CVTable struct {
	ID       string
	Proposed string
	Columns  []CVColumn
}

// CVColumn is one mesh-size column of a CVTable.
type CVColumn struct {
	Mesh       string
	Nodes      int
	ProposedCV float64
	Rows       []ImprovementRow
}

// String implements fmt.Stringer via Format.
func (t *CVTable) String() string { return t.Format() }

// Format renders the table in the paper's layout: baselines as rows,
// sizes as columns, each cell CV and improvement%.
func (t *CVTable) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: CV of broadcast latencies with %s improvement (%sIMR%%)\n", t.ID, t.Proposed, t.Proposed)
	fmt.Fprintf(&b, "%-10s", "")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%22s", fmt.Sprintf("%s (%d)", c.Mesh, c.Nodes))
	}
	b.WriteByte('\n')
	if len(t.Columns) == 0 {
		return b.String()
	}
	for i := range t.Columns[0].Rows {
		fmt.Fprintf(&b, "%-10s", t.Columns[0].Rows[i].Baseline)
		for _, c := range t.Columns {
			r := c.Rows[i]
			fmt.Fprintf(&b, "%22s", fmt.Sprintf("CV %.4f  +%.2f%%", r.BaselineCV, r.Improvement))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%-10s", t.Proposed)
	for _, c := range t.Columns {
		fmt.Fprintf(&b, "%22s", fmt.Sprintf("CV %.4f", c.ProposedCV))
	}
	b.WriteByte('\n')
	return b.String()
}
