package main

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// outcome is what the one-call entry point (ContendedCVStudy or
// RunSingle) reports for one algorithm of a bundle. The composed
// pipeline must reproduce it exactly.
type outcome struct {
	Algo    string
	Events  uint64 // saturation only: RunSingle does not expose its simulator
	Latency float64
	CV      float64
	N       int
}

// bundle is one op: the paper's four algorithms on one seed.
type bundle []outcome

// layerRun is one algorithm's simulation inside a composed op. The
// traced run reads its counters after the op's span has ended, so the
// reads do not count as op time.
type layerRun struct {
	s        *sim.Simulator
	net      *network.Network
	plan     *broadcast.Plan // the first plan executed, for the routing walk
	messages int             // worms the executed plans asked for
}

// opCounts is what the traced run reads from the layers of one op,
// beside the spans.
type opCounts struct {
	events, batches, batchEvents, worms uint64
	messages, nets                      int
	util, hottest                       float64
}

// addRuns adds the simulator and network counters of an op's finished
// simulations.
func (c *opCounts) addRuns(runs []layerRun) {
	for _, r := range runs {
		wf := r.s.WavefrontStats()
		c.events += r.s.Fired()
		c.batches += wf.Batches
		c.batchEvents += wf.Events
		c.worms += r.net.Injected()
		c.messages += r.messages
		c.nets++
		c.util += r.net.MeanUtilization()
		if hot := r.net.HottestChannels(1); len(hot) > 0 {
			c.hottest += hot[0].Utilization(r.s.Now())
		}
	}
}

// simBench is a workload whose op is a four-algorithm bundle.
type simBench interface {
	// run performs op i through the layers' one-call entry point and
	// checks its invariants. It is the untraced op.
	run(i int) (bundle, error)
	// compose performs op i as a sequence of public layer calls, one
	// span each, under the op's root span.
	compose(i int, tr *tracer, root int32, obs *planObserver) (bundle, []layerRun, error)
	// checkReference compares op i's bundle with the values stored for
	// the default seed, when there are any for op i.
	checkReference(i int, got bundle) error
	mesh() *topology.Mesh
}

// parity reports the first difference between the reference path's
// bundle and the composed pipeline's.
func parity(ref, got bundle) error {
	if len(ref) != len(got) {
		return fmt.Errorf("parity: %d algorithms composed, %d in the reference", len(got), len(ref))
	}
	for k := range ref {
		if ref[k] != got[k] {
			return fmt.Errorf("parity: composed %+v, reference %+v", got[k], ref[k])
		}
	}
	return nil
}

// checkResults asserts every broadcast of a simulation completed and
// informed every node.
func checkResults(algo string, nodes int, results []*broadcast.Result) error {
	for k, r := range results {
		if !r.Done || r.Informed != nodes || r.Finish < r.Start {
			return fmt.Errorf("%s broadcast %d: done=%v informed %d/%d", algo, k, r.Done, r.Informed, nodes)
		}
	}
	return nil
}

// saturation is the Fig. 2 regime past its knee: per algorithm, 40
// overlapping 64-flit broadcasts at a 2 µs mean gap on 8×8×8.
type saturation struct {
	m     *topology.Mesh
	seed  uint64
	cfg   func(seed uint64) metrics.ContendedConfig
	algos []broadcast.Algorithm
}

func newSaturation(seed uint64) *saturation {
	return &saturation{
		m:     topology.NewMesh(metrics.SaturationDims()...),
		seed:  seed,
		cfg:   metrics.SaturationConfig,
		algos: scenario.PaperAlgorithms(),
	}
}

func (w *saturation) mesh() *topology.Mesh { return w.m }

// opSeed is the study seed of op i; op 0 studies the run seed itself,
// so the default seed's first op is BENCH_pr10.json's workload.
func (w *saturation) opSeed(i int) uint64 {
	if i == 0 {
		return w.seed
	}
	return mix(w.seed, i)
}

func (w *saturation) run(i int) (bundle, error) {
	cfg := w.cfg(w.opSeed(i))
	out := make(bundle, 0, len(w.algos))
	for _, algo := range w.algos {
		st, err := metrics.ContendedCVStudy(w.m, algo, cfg)
		if err != nil {
			return nil, err
		}
		if st.Latency.N() != cfg.Broadcasts || st.CV.N() != cfg.Broadcasts || st.Events == 0 {
			return nil, fmt.Errorf("%s: %d/%d broadcasts measured, %d events", algo.Name(), st.CV.N(), cfg.Broadcasts, st.Events)
		}
		out = append(out, outcome{Algo: algo.Name(), Events: st.Events, Latency: st.Latency.Mean(), CV: st.CV.Mean(), N: st.CV.N()})
	}
	return out, nil
}

// compose is metrics.ContendedCVStudy spelled out call by call.
func (w *saturation) compose(i int, tr *tracer, root int32, obs *planObserver) (bundle, []layerRun, error) {
	cfg := w.cfg(w.opSeed(i))
	if cfg.Interarrival <= 0 {
		return nil, nil, fmt.Errorf("compose: needs an explicit interarrival")
	}
	op := int32(i)
	out := make(bundle, 0, len(w.algos))
	runs := make([]layerRun, 0, len(w.algos))
	for _, algo := range w.algos {
		study := tr.begin("metrics.ContendedCVStudy", root, op)
		var s *sim.Simulator
		tr.call("sim.New", study, op, func() { s = sim.New() })
		ncfg := cfg.Net
		ncfg.Ports = algo.Ports()
		var net *network.Network
		var err error
		tr.call("network.New", study, op, func() { net, err = network.New(s, w.m, ncfg) })
		if err != nil {
			return nil, nil, err
		}
		var adaptive routing.Selector
		if algo.Name() == "AB" {
			adaptive = routing.WestFirstFor(w.m)
		}
		rng := sim.NewRNG(cfg.Seed, 31)
		at := sim.Time(0)
		results := make([]*broadcast.Result, 0, cfg.Broadcasts)
		run := layerRun{s: s, net: net}
		for b := 0; b < cfg.Broadcasts; b++ {
			at += rng.Exp(cfg.Interarrival)
			src := topology.NodeID(rng.Intn(w.m.Nodes()))
			var plan *broadcast.Plan
			tr.call("broadcast.PlanCached", study, op, func() { plan, err = broadcast.PlanCached(w.m, algo, src) })
			if err != nil {
				return nil, nil, err
			}
			obs.observe(planKey{w.m.Name(), algo.Name(), src}, plan)
			if run.plan == nil {
				run.plan = plan
			}
			var r *broadcast.Result
			tr.call("broadcast.Execute", study, op, func() {
				r, err = broadcast.Execute(net, plan, broadcast.Options{
					Start: at, Length: cfg.Length, Adaptive: adaptive, Tag: fmt.Sprintf("cv%d", b),
				})
			})
			if err != nil {
				return nil, nil, err
			}
			if r != nil {
				results = append(results, r)
				run.messages += plan.MessageCount()
			}
		}
		tr.call("sim.Run", study, op, s.Run)
		tr.end(study)
		runs = append(runs, run)

		var lat, cv stats.Accumulator
		for _, r := range results {
			lat.Add(r.Latency())
			cv.Add(r.DestinationCV())
		}
		out = append(out, outcome{Algo: algo.Name(), Events: s.Fired(), Latency: lat.Mean(), CV: cv.Mean(), N: cv.N()})
		if err := checkResults(algo.Name(), w.m.Nodes(), results); err != nil {
			return out, runs, err
		}
	}
	return out, runs, nil
}

// saturationRef is BENCH_pr10.json's saturation workload (seed 2005):
// per algorithm, events per study and mean CV. Latency is not in that
// artifact, so the check compares the two fields it has.
var saturationRef = map[string]outcome{
	"RD":  {Events: 172320, CV: 0.29868753568972534},
	"EDN": {Events: 162400, CV: 0.23270956521852365},
	"DB":  {Events: 84188, CV: 0.10990611919552147},
	"AB":  {Events: 67790, CV: 0.1983936489795524},
}

func (w *saturation) checkReference(i int, got bundle) error {
	if w.seed != defaultSeed || i != 0 {
		return nil
	}
	if len(got) != len(saturationRef) {
		return fmt.Errorf("reference: %d algorithms, want %d", len(got), len(saturationRef))
	}
	for _, o := range got {
		ref := saturationRef[o.Algo]
		if o.Events != ref.Events || o.CV != ref.CV {
			return fmt.Errorf("reference: %s has %d events and mean CV %v, BENCH_pr10.json has %d and %v",
				o.Algo, o.Events, o.CV, ref.Events, ref.CV)
		}
	}
	return nil
}

// fig1Large is Fig. 1's largest mesh with no contention: one random
// source, each algorithm broadcasting L=100 flits on a fresh network.
type fig1Large struct {
	m     *topology.Mesh
	seed  uint64
	cfg   network.Config
	algos []broadcast.Algorithm
}

const fig1Length = 100

func newFig1Large(seed uint64) *fig1Large {
	return &fig1Large{
		m:     topology.NewMesh(16, 16, 16),
		seed:  seed,
		cfg:   network.DefaultConfig(),
		algos: scenario.PaperAlgorithms(),
	}
}

func (w *fig1Large) mesh() *topology.Mesh { return w.m }

func (w *fig1Large) source(i int) topology.NodeID {
	return topology.NodeID(mix(w.seed, i) % uint64(w.m.Nodes()))
}

func (w *fig1Large) run(i int) (bundle, error) {
	src := w.source(i)
	out := make(bundle, 0, len(w.algos))
	for _, algo := range w.algos {
		r, err := broadcast.RunSingle(w.m, algo, src, w.cfg, fig1Length)
		if err != nil {
			return nil, err
		}
		if err := checkResults(algo.Name(), w.m.Nodes(), []*broadcast.Result{r}); err != nil {
			return nil, err
		}
		out = append(out, outcome{Algo: algo.Name(), Latency: r.Latency(), CV: r.DestinationCV(), N: r.Informed})
	}
	return out, nil
}

// compose is broadcast.RunSingle spelled out call by call.
func (w *fig1Large) compose(i int, tr *tracer, root int32, obs *planObserver) (bundle, []layerRun, error) {
	src := w.source(i)
	op := int32(i)
	out := make(bundle, 0, len(w.algos))
	runs := make([]layerRun, 0, len(w.algos))
	for _, algo := range w.algos {
		single := tr.begin("broadcast.RunSingle", root, op)
		var plan *broadcast.Plan
		var err error
		tr.call("broadcast.PlanCached", single, op, func() { plan, err = broadcast.PlanCached(w.m, algo, src) })
		if err != nil {
			return nil, nil, err
		}
		obs.observe(planKey{w.m.Name(), algo.Name(), src}, plan)
		cfg := w.cfg
		cfg.Ports = algo.Ports()
		var s *sim.Simulator
		tr.call("sim.New", single, op, func() { s = sim.New() })
		var net *network.Network
		tr.call("network.New", single, op, func() { net, err = network.New(s, w.m, cfg) })
		if err != nil {
			return nil, nil, err
		}
		var adaptive routing.Selector
		for _, snd := range plan.Sends {
			if snd.Adaptive {
				adaptive = routing.WestFirstFor(w.m)
				break
			}
		}
		var r *broadcast.Result
		tr.call("broadcast.Execute", single, op, func() {
			r, err = broadcast.Execute(net, plan, broadcast.Options{
				Length: fig1Length, Adaptive: adaptive, Tag: "single",
				Stream: w.m.Nodes() >= broadcast.StreamThreshold,
			})
		})
		if err != nil {
			return nil, nil, err
		}
		tr.call("sim.Run", single, op, s.Run)
		tr.end(single)
		run := layerRun{s: s, net: net, plan: plan}
		if r == nil {
			runs = append(runs, run)
			out = append(out, outcome{Algo: algo.Name()})
			continue
		}
		run.messages = plan.MessageCount()
		runs = append(runs, run)
		out = append(out, outcome{Algo: algo.Name(), Latency: r.Latency(), CV: r.DestinationCV(), N: r.Informed})
		if err := checkResults(algo.Name(), w.m.Nodes(), []*broadcast.Result{r}); err != nil {
			return out, runs, err
		}
	}
	return out, runs, nil
}

// fig1Ref is op 0 at the default seed (source 80), recorded from
// broadcast.RunSingle.
var fig1Ref = bundle{
	{Algo: "RD", Latency: 21.735000000000007, CV: 0.12721443208829766, N: 4096},
	{Algo: "EDN", Latency: 15.735000000000007, CV: 0.17187576971272975, N: 4096},
	{Algo: "DB", Latency: 8.049000000000031, CV: 0.16670855801022774, N: 4096},
	{Algo: "AB", Latency: 5.949000000000013, CV: 0.039027199125156245, N: 4096},
}

func (w *fig1Large) checkReference(i int, got bundle) error {
	if w.seed != defaultSeed || i != 0 {
		return nil
	}
	if err := parity(fig1Ref, got); err != nil {
		return fmt.Errorf("reference: %w", err)
	}
	return nil
}

// newWalkers returns the selectors walkPlan routes with.
func newWalkers(m *topology.Mesh) (dor, wf routing.ChannelAppender, err error) {
	wf, ok := routing.WestFirstFor(m).(routing.ChannelAppender)
	if !ok {
		return nil, nil, fmt.Errorf("west-first selector on %s resolves no channels", m.Name())
	}
	return routing.NewDOR(m), wf, nil
}

// walkPlan routes every send of plan hop by hop with the routing
// layer's channel-resolving selectors: dimension order, or west-first
// for adaptive sends, always taking the first candidate. It returns
// the number of routing steps taken.
func walkPlan(m *topology.Mesh, plan *broadcast.Plan, dor, wf routing.ChannelAppender) (int, error) {
	var buf []routing.Hop
	steps := 0
	for _, s := range plan.Sends {
		sel := dor
		if s.Adaptive {
			sel = wf
		}
		cur := s.Path.Source
		for _, wp := range s.Path.Waypoints {
			for cur != wp {
				buf = sel.AppendNextChannels(buf[:0], cur, wp)
				if len(buf) == 0 {
					return steps, fmt.Errorf("routing stalled at %d toward %d", cur, wp)
				}
				cur = buf[0].Node
				steps++
			}
		}
	}
	return steps, nil
}
