package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/broadcast"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Run drains the calendar in same-instant batches; Step pops one
// record at a time. Batching is an optimization, not a semantics
// change, so two twin networks fed the same staggered broadcasts must
// end bit-for-bit identical whichever drain empties them — on any
// topology, either state store, pristine or under faults. This is the
// network-level counterpart of the kernel differentials in
// internal/sim.

// twinCase is one random Run-vs-Step differential case.
type twinCase struct {
	dims   []int
	torus  bool
	algoIx int
	seed   uint64
	store  network.StoreMode
	links  int     // links failed at t=0 (0 = pristine)
	churn  bool    // add transient link churn and a failed node
	grace  float64 // DeadWait: how long a dead-ended worm parks

	broadcasts, length int // workload: count and flits per message
}

var twinAlgos = []broadcast.Algorithm{
	broadcast.NewRD(), broadcast.NewDB(), broadcast.NewAB(), broadcast.NewEDN(),
}

// Generate implements quick.Generator: 1–3 dimensions of extent 2–5,
// mesh or torus, an algorithm the dimensionality supports, dense or
// lazy store, 0–4 failed links, optional churn and node failure, and
// eight 16-flit broadcasts — about a third of the cases pristine.
func (twinCase) Generate(r *rand.Rand, _ int) reflect.Value {
	nd := 1 + r.Intn(3)
	dims := make([]int, nd)
	for i := range dims {
		dims[i] = 2 + r.Intn(4)
	}
	nAlgos := 1 // RD
	switch nd {
	case 2:
		nAlgos = 3 // +DB, AB
	case 3:
		nAlgos = 4 // +EDN
	}
	return reflect.ValueOf(twinCase{
		dims:   dims,
		torus:  r.Intn(2) == 1,
		algoIx: r.Intn(nAlgos),
		seed:   r.Uint64(),
		store:  network.StoreMode(1 + r.Intn(2)), // StoreDense or StoreLazy
		links:  []int{0, 0, 2, 4}[r.Intn(4)],
		churn:  r.Intn(3) == 0,
		grace:  float64(r.Intn(2)) * 5,

		broadcasts: 8, length: 16,
	})
}

func (c twinCase) mesh() *topology.Mesh {
	if c.torus {
		return topology.NewTorus(c.dims...)
	}
	return topology.NewMesh(c.dims...)
}

// faults returns the case's fault plan (nil when pristine).
func (c twinCase) faults(m *topology.Mesh) (*fault.Plan, error) {
	var plans []*fault.Plan
	if k := min(c.links, len(fault.Links(m))); k > 0 {
		p, err := fault.RandomLinks(m, c.seed, k, 0)
		if err != nil {
			return nil, err
		}
		plans = append(plans, p)
	}
	if c.churn {
		churn, err := fault.Churn(m, c.seed+1, 1, 3, 5, 8, 3)
		if err != nil {
			return nil, err
		}
		nodes, err := fault.RandomNodes(m, c.seed+2, 1, 2)
		if err != nil {
			return nil, err
		}
		plans = append(plans, churn, nodes)
	}
	if len(plans) == 0 {
		return nil, nil
	}
	return fault.Merge(plans...), nil
}

// twin is one built network with its broadcasts injected, not yet run.
type twin struct {
	s       *sim.Simulator
	net     *network.Network
	results []*broadcast.Result
}

// config is the case's network configuration.
func (c twinCase) config() network.Config {
	cfg := network.DefaultConfig()
	if c.torus {
		cfg.VCs = 2
	}
	cfg.Store = c.store
	cfg.DeadWait = c.grace
	cfg.Ports = twinAlgos[c.algoIx].Ports()
	return cfg
}

// build constructs the case's network and injects the staggered
// broadcasts from seeded random sources, 2 µs apart on average. Two builds of one case are
// identical twins.
func (c twinCase) build() (*twin, error) {
	m := c.mesh()
	net, err := network.New(sim.New(), m, c.config())
	if err != nil {
		return nil, err
	}
	return c.buildOn(m, net)
}

// buildOn is build on a given pristine network over m.
func (c twinCase) buildOn(m *topology.Mesh, net *network.Network) (*twin, error) {
	algo := twinAlgos[c.algoIx]
	tw := &twin{s: net.Sim(), net: net}
	plan, err := c.faults(m)
	if err != nil {
		return nil, err
	}
	if err := plan.Apply(tw.net); err != nil {
		return nil, err
	}
	var adaptive routing.Selector
	if algo.Name() == "AB" {
		adaptive = routing.WestFirstFor(m)
	}
	rng := sim.NewRNG(c.seed, 31)
	at := sim.Time(0)
	for i := 0; i < c.broadcasts; i++ {
		at += rng.Exp(2)
		p, err := broadcast.PlanCached(m, algo, topology.NodeID(rng.Intn(m.Nodes())))
		if err != nil {
			return nil, err
		}
		r, err := broadcast.Execute(tw.net, p, broadcast.Options{Start: at, Length: c.length, Adaptive: adaptive})
		if err != nil {
			return nil, err
		}
		tw.results = append(tw.results, r)
	}
	return tw, nil
}

// outcome is everything a drained twin leaves observable.
type outcome struct {
	Arrivals [][]sim.Time
	Informed []int
	Now      sim.Time
	Fired    uint64
	Pending  int
	Dropped  uint64
	InFlight int
}

func (tw *twin) outcome() outcome {
	o := outcome{
		Now: tw.s.Now(), Fired: tw.s.Fired(), Pending: tw.s.Pending(),
		Dropped: tw.net.Dropped(), InFlight: tw.net.InFlight(),
	}
	for _, r := range tw.results {
		o.Arrivals = append(o.Arrivals, r.Arrival)
		o.Informed = append(o.Informed, r.Informed)
	}
	return o
}

// runVsStep builds the case twice, drains one twin with Run and the
// other with a Step loop (auditing the network's invariants every 64
// records on the way), and reports the first disagreement.
func (c twinCase) runVsStep() error {
	batched, err := c.build()
	if err != nil {
		return err
	}
	stepped, err := c.build()
	if err != nil {
		return err
	}
	batched.s.Run()
	for n := 1; stepped.s.Step(); n++ {
		if n%64 == 0 {
			if err := stepped.net.CheckInvariants(); err != nil {
				return fmt.Errorf("step twin at t=%v: %v", stepped.s.Now(), err)
			}
		}
	}
	for name, tw := range map[string]*twin{"run": batched, "step": stepped} {
		if err := tw.net.CheckInvariants(); err != nil {
			return fmt.Errorf("%s twin after drain: %v", name, err)
		}
	}
	if b, s := batched.outcome(), stepped.outcome(); !reflect.DeepEqual(b, s) {
		return fmt.Errorf("drains diverge\nRun:  %+v\nStep: %+v", b, s)
	}
	return nil
}

// TestRunMatchesStepQuick is the network differential: random meshes
// and tori × dense/lazy stores × fault plans, eight overlapping
// broadcasts each — Run and a Step loop must leave identical
// arrivals, clocks, event counts and fault accounting.
func TestRunMatchesStepQuick(t *testing.T) {
	prop := func(c twinCase) bool {
		if err := c.runVsStep(); err != nil {
			t.Logf("case %+v: %v", c, err)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(20261018)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestRunMatchesStepContended is the readable fixed-shape twin of the
// quick suite at real contention: 24 overlapping 32-flit broadcasts
// on an 8×8 mesh, pristine and under churn with a failed node.
func TestRunMatchesStepContended(t *testing.T) {
	for _, algoIx := range []int{0, 1, 2} {
		for _, churn := range []bool{false, true} {
			c := twinCase{
				dims: []int{8, 8}, algoIx: algoIx, seed: 7, store: network.StoreDense,
				churn: churn, grace: 5, broadcasts: 24, length: 32,
			}
			if err := c.runVsStep(); err != nil {
				t.Errorf("%s churn=%v: %v", twinAlgos[algoIx].Name(), churn, err)
			}
		}
	}
}

// TestWavefrontStatsAccumulate sanity-checks the batch statistics the
// EXPERIMENTS.md distribution comes from: a contended study must
// observe multi-event batches, and the histogram totals must agree
// with the counters. The census counts calendar records while Fired
// counts model events, and the two differ because the network folds
// each worm's drain tail into one record per tail instant: both
// counts are pinned exactly for this broadcast.
func TestWavefrontStatsAccumulate(t *testing.T) {
	m := topology.NewMesh(8, 8)
	s := sim.New()
	net, err := network.New(s, m, network.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := broadcast.Execute(net, mustPlan(t, m, broadcast.NewRD(), 0), broadcast.Options{Length: 32}); err != nil {
		t.Fatal(err)
	}
	s.Run()
	st := s.WavefrontStats()
	if st.Batches == 0 || st.Events == 0 {
		t.Fatalf("no batches recorded: %+v", st)
	}
	if s.Fired() != 532 {
		t.Errorf("fired %d model events, want 532", s.Fired())
	}
	if st.Events != 343 {
		t.Errorf("batches carried %d calendar records, want 343", st.Events)
	}
	var hist uint64
	for _, n := range st.Hist {
		hist += n
	}
	if hist != st.Batches {
		t.Errorf("histogram total %d != batches %d", hist, st.Batches)
	}
	if st.Events <= st.Batches {
		t.Error("every batch was a single event; wavefronts never formed")
	}
}

func mustPlan(t *testing.T, m *topology.Mesh, algo broadcast.Algorithm, src topology.NodeID) *broadcast.Plan {
	t.Helper()
	p, err := broadcast.PlanCached(m, algo, src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
