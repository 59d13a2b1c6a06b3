package scenario

import (
	"context"
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// FaultSpec declares a scenario's fault injection declaratively; the
// run loop expands it into one fault.Plan per mesh and link count. All
// randomness derives from (Spec.Seed, FaultSpec.Seed) only — never
// from the series — so every algorithm and substrate sees the
// identical fault plan and the comparison is paired.
//
// On the faults axis the failed-link count comes from the sweep value
// x and Links is ignored; on every other axis Links is the fixed
// count. The zero FaultSpec is a no-op on any workload: it builds the
// empty plan, engages none of the network's fault machinery, and
// leaves output byte-identical to a nil-Faults run.
type FaultSpec struct {
	// Links is the failed undirected-link count (ignored on the
	// faults axis, where the sweep value supplies it). Link sets nest
	// across counts for one seed: see fault.RandomLinks.
	Links int
	// Nodes is the failed-node count (fault.RandomNodes; static even
	// when links churn).
	Nodes int
	// At is the failure onset time in µs (default 0: faults precede
	// all traffic).
	At float64
	// UpAfter, when positive, restores every failed resource UpAfter
	// µs after it went down (transient faults). Zero means fail-stop.
	UpAfter float64
	// Period and Strikes switch link failures to churn waves: Strikes
	// waves of fresh links at At, At+Period, …, each healing after
	// UpAfter (fault.Churn; needs positive UpAfter and Period).
	Period  float64
	Strikes int
	// Wait is the network's DeadWait: how long a dead-ended worm may
	// stay parked awaiting recovery before it is dropped. Zero drops
	// immediately.
	Wait float64
	// Seed perturbs which links/nodes fail without touching the
	// traffic seed.
	Seed uint64
}

// active reports whether the spec would actually fail anything.
func (f *FaultSpec) active() bool {
	return f != nil && (f.Links > 0 || f.Nodes > 0)
}

// plan expands the spec into a validated fault plan for m with the
// given failed-link count. A nil receiver or zero counts yield the
// empty plan.
func (f *FaultSpec) plan(m *topology.Mesh, seed uint64, links int) (*fault.Plan, error) {
	if f == nil {
		return &fault.Plan{}, nil
	}
	fseed := seed + 1000003*f.Seed
	at := sim.Time(f.At)
	var plans []*fault.Plan
	if links > 0 {
		if f.Strikes > 0 {
			p, err := fault.Churn(m, fseed, links, at, sim.Time(f.UpAfter), sim.Time(f.Period), f.Strikes)
			if err != nil {
				return nil, err
			}
			plans = append(plans, p)
		} else {
			p, err := fault.RandomLinks(m, fseed, links, at)
			if err != nil {
				return nil, err
			}
			if f.UpAfter > 0 {
				p = fault.RestoredAfter(p, sim.Time(f.UpAfter))
			}
			plans = append(plans, p)
		}
	}
	if f.Nodes > 0 {
		// Node faults are static even under churn: the waves model
		// flaky links, not rebooting routers.
		p, err := fault.RandomNodes(m, fseed+7919, f.Nodes, at)
		if err != nil {
			return nil, err
		}
		if f.UpAfter > 0 && f.Strikes == 0 {
			p = fault.RestoredAfter(p, sim.Time(f.UpAfter))
		}
		plans = append(plans, p)
	}
	return fault.Merge(plans...), nil
}

// vcsFor resolves the virtual-channel count for one topology kind:
// the explicit VCs if set, else the kind's default (2 on tori for the
// dateline pair, 1 on meshes).
func (s *Spec) vcsFor(kind string) int {
	if s.VCs > 0 {
		return s.VCs
	}
	if kind == TopoTorus {
		return 2
	}
	return 1
}

// buildTopoKind constructs one topology of the named kind.
func buildTopoKind(kind string, dims []int) *topology.Mesh {
	if kind == TopoTorus {
		return topology.NewTorus(dims...)
	}
	return topology.NewMesh(dims...)
}

// faultPlans builds the n cells' fault plans, shared read-only, before
// they fan out: once per distinct (mesh, failed links) cell(k) names.
func (s *Spec) faultPlans(n int, cell func(k int) (*topology.Mesh, int)) ([]*fault.Plan, error) {
	type key struct {
		m     *topology.Mesh
		links int
	}
	built := make(map[key]*fault.Plan)
	out := make([]*fault.Plan, n)
	for k := range out {
		m, links := cell(k)
		if built[key{m, links}] == nil {
			p, err := s.Faults.plan(m, s.Seed, links)
			if err != nil {
				return nil, fmt.Errorf("%s on %s at %d failed links: %w", s.Name, m.Name(), links, err)
			}
			built[key{m, links}] = p
		}
		out[k] = built[key{m, links}]
	}
	return out, nil
}

// faultedCell runs one degraded study cell: the spec's contended
// traffic on a network degraded by plan, under substrate sub if subSet.
func (s *Spec) faultedCell(m *topology.Mesh, algo broadcast.Algorithm, gap float64,
	vcs int, plan *fault.Plan, memo *broadcast.Memo, sub string, subSet bool) (*metrics.DegradationStats, error) {
	ncfg := s.netConfig()
	ncfg.VCs = vcs
	if s.Faults != nil {
		ncfg.DeadWait = s.Faults.Wait
	}
	if s.PerNodeInterarrival > 0 {
		gap = s.PerNodeInterarrival / float64(m.Nodes())
	}
	dcfg := metrics.DegradedConfig{
		Net:          ncfg,
		Length:       s.Length,
		Broadcasts:   s.Reps,
		Interarrival: gap,
		Seed:         s.Seed,
		Faults:       plan,
		Plans:        memo,
	}
	if subSet {
		dcfg.Adaptive, dcfg.AdaptiveSet = substrateFor(sub, m), true
	}
	return metrics.DegradedStudy(m, algo, dcfg)
}

// degradedPoint projects one degraded cell into a figure point. base
// is the series' pristine (x=0) cell, consulted only by the inflation
// metric.
func (s *Spec) degradedPoint(st *metrics.DegradationStats, x float64, base *metrics.DegradationStats) Point {
	pt := Point{X: x}
	switch s.Metric {
	case MetricLatency:
		pt.Y, pt.CI = st.Latency.Mean(), st.Latency.Confidence95()
	case MetricInflation:
		pt.Y = st.LatencyInflation(base)
		ci := st.Latency.Confidence95()
		pt.CI = stats.Interval{Mean: pt.Y, N: ci.N}
		if bm := base.Latency.Mean(); bm != 0 {
			pt.CI.HalfWide = ci.HalfWide / bm
		}
	case MetricCV:
		pt.Y, pt.CI = st.CV.Mean(), st.CV.Confidence95()
	default: // MetricCoverage, the faults-axis default
		pt.Y, pt.CI = st.Coverage.Mean(), st.Coverage.Confidence95()
	}
	return pt
}

// faultSeries is one line of a faults-axis figure: an algorithm on a
// topology kind, or one routing substrate.
type faultSeries struct {
	label  string
	algo   broadcast.Algorithm
	m      *topology.Mesh
	vcs    int
	sub    string
	subSet bool
}

// runFaults executes the failed-links sweep: every series replays the
// same traffic under the same nested fault plan family while x failed
// links accumulate. Series are substrates (one algorithm) when
// Substrates is set, else algorithms × topology kinds.
func runFaults(ctx context.Context, s *Spec, algos []broadcast.Algorithm, res *Result) error {
	var series []faultSeries
	var fixed *topology.Mesh
	if len(s.Substrates) > 0 {
		fixed = s.buildTopo(s.Dims)
		vcs := s.vcsFor(s.Topo)
		for _, sub := range s.Substrates {
			series = append(series, faultSeries{label: sub, algo: algos[0], m: fixed, vcs: vcs, sub: sub, subSet: true})
		}
	} else {
		kinds := s.Topos
		if len(kinds) == 0 {
			kinds = []string{s.Topo}
		}
		meshes := make(map[string]*topology.Mesh, len(kinds))
		for _, kind := range kinds {
			if _, ok := meshes[kind]; !ok {
				meshes[kind] = buildTopoKind(kind, s.Dims)
			}
		}
		if len(kinds) == 1 {
			fixed = meshes[kinds[0]]
		}
		for _, algo := range algos {
			for _, kind := range kinds {
				label := algo.Name()
				if len(kinds) > 1 {
					label += "/" + kind
				}
				series = append(series, faultSeries{label: label, algo: algo, m: meshes[kind], vcs: s.vcsFor(kind)})
			}
		}
	}
	title, xl, yl := s.headings(fixed)
	fig := &Figure{ID: s.ID, Title: title, XLabel: xl, YLabel: yl}

	xs := s.Xs
	nx := len(xs)
	cells := len(series) * nx
	plans, err := s.faultPlans(cells, func(k int) (*topology.Mesh, int) { return series[k/nx].m, int(xs[k%nx]) })
	if err != nil {
		return err
	}
	memo := &broadcast.Memo{} // paired cells replay the same sources at every fault level
	p := s.pool(cells)
	grid, err := runner.MapCtx(ctx, p, cells, func(k int) (*metrics.DegradationStats, error) {
		se := series[k/nx]
		st, err := s.faultedCell(se.m, se.algo, s.Interarrival, se.vcs, plans[k], memo, se.sub, se.subSet)
		if err != nil {
			return nil, fmt.Errorf("%s %s on %s at %g failed links: %w", s.Name, se.label, se.m.Name(), xs[k%nx], err)
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	for si, se := range series {
		sr := Series{Label: se.label}
		base := grid[si*nx] // x=0 when the sweep starts at 0 (inflation validates this)
		for xi, x := range xs {
			sr.Points = append(sr.Points, s.degradedPoint(grid[si*nx+xi], x, base))
		}
		fig.Series = append(fig.Series, sr)
	}
	res.Figure = fig
	return nil
}

// runContendedFaulted executes a contended sweep (size, interarrival
// or VCs axis) with a fixed active fault set applied to every cell —
// the -faults CLI path. One fault plan per topology fails Links links
// of each shape; the cells plan their broadcasts without a shared memo.
func runContendedFaulted(ctx context.Context, s *Spec, algos []broadcast.Algorithm, res *Result) error {
	topos, xs, fixed := s.sweepCells()
	title, xl, yl := s.headings(fixed)
	fig := &Figure{ID: s.ID, Title: title, XLabel: xl, YLabel: yl}

	cells := len(algos) * len(xs)
	plans, err := s.faultPlans(cells, func(k int) (*topology.Mesh, int) { return topos[k%len(xs)], s.Faults.Links })
	if err != nil {
		return err
	}
	p := s.pool(cells)
	grid, err := runner.MapCtx(ctx, p, cells, func(k int) (*metrics.DegradationStats, error) {
		algo, xi := algos[k/len(xs)], k%len(xs)
		m := topos[xi]
		gap := s.Interarrival
		if s.Axis == AxisInterarrival {
			gap = xs[xi]
		}
		vcs := s.VCs
		if s.Axis == AxisVCs {
			vcs = int(xs[xi])
		}
		st, err := s.faultedCell(m, algo, gap, vcs, plans[k], nil, "", false)
		if err != nil {
			return nil, fmt.Errorf("%s %s on %s: %w", s.Name, algo.Name(), m.Name(), err)
		}
		return st, nil
	})
	if err != nil {
		return err
	}
	for a, algo := range algos {
		sr := Series{Label: algo.Name()}
		for xi, x := range xs {
			sr.Points = append(sr.Points, s.degradedPoint(grid[a*len(xs)+xi], x, nil))
		}
		fig.Series = append(fig.Series, sr)
	}
	res.Figure = fig
	return nil
}
