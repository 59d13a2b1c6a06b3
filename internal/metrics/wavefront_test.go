package metrics

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/broadcast"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// Wavefront batch execution is an optimization, not a semantics
// change: draining the calendar one equal-due run at a time must be
// bit-for-bit identical to popping one event at a time — on any
// topology, either state store, contended or fault-degraded, at any
// shard count, on either calendar. These tests pin that contract the
// same way the sharded and heap/ladder differentials pin theirs.

// wfDiffCase is one random wavefront differential scenario.
type wfDiffCase struct {
	dims   []int
	torus  bool
	algoIx int
	seed   uint64
	shards int
	store  network.StoreMode
	links  int     // failed links (0 = pristine)
	grace  float64 // DeadWait when faulted
}

// Generate implements quick.Generator: 1–3 dimensions of extent 2–5,
// mesh or torus, an algorithm the dimensionality supports, dense or
// lazy store, 2–6 shards, 0–8 failed links.
func (wfDiffCase) Generate(r *rand.Rand, _ int) reflect.Value {
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
	c := wfDiffCase{
		dims:   dims,
		torus:  r.Intn(2) == 1,
		algoIx: r.Intn(nAlgos),
		seed:   r.Uint64(),
		shards: 2 + r.Intn(5),
		store:  network.StoreMode(1 + r.Intn(2)), // StoreDense or StoreLazy
		links:  r.Intn(3) * 4,
		grace:  float64(r.Intn(2)) * 5,
	}
	return reflect.ValueOf(c)
}

func (c wfDiffCase) mesh() *topology.Mesh {
	if c.torus {
		return topology.NewTorus(c.dims...)
	}
	return topology.NewMesh(c.dims...)
}

func (c wfDiffCase) netConfig(shards int) network.Config {
	cfg := network.DefaultConfig()
	if c.torus {
		cfg.VCs = 2
	}
	cfg.Store = c.store
	cfg.Shards = shards
	return cfg
}

// contended runs the contended CV study under the given knobs.
func (c wfDiffCase) contended(wavefront bool, shards int) (*SingleSourceStats, error) {
	defer sim.SetDefaultWavefront(sim.DefaultWavefront())
	sim.SetDefaultWavefront(wavefront)
	return ContendedCVStudy(c.mesh(), shardDiffAlgos[c.algoIx], ContendedConfig{
		Net: c.netConfig(shards), Length: 16, Broadcasts: 8, Interarrival: 2, Seed: c.seed,
	})
}

// degraded runs the fault-degraded study under the given knobs.
func (c wfDiffCase) degraded(wavefront bool, shards int) (*DegradationStats, error) {
	defer sim.SetDefaultWavefront(sim.DefaultWavefront())
	sim.SetDefaultWavefront(wavefront)
	m := c.mesh()
	ncfg := c.netConfig(shards)
	ncfg.DeadWait = c.grace
	var plan *fault.Plan
	if c.links > 0 {
		k := c.links
		if avail := len(fault.Links(m)); k > avail {
			k = avail
		}
		var err error
		plan, err = fault.RandomLinks(m, c.seed, k, 0)
		if err != nil {
			return nil, err
		}
	}
	return DegradedStudy(m, shardDiffAlgos[c.algoIx], DegradedConfig{
		Net: ncfg, Length: 16, Broadcasts: 8, Interarrival: 2,
		Seed: c.seed, Faults: plan,
	})
}

// TestWavefrontContendedStudySmoke is the readable fixed-shape twin of
// the quick.Check suite: wavefront off must match wavefront on, on
// both calendars, at shards 1, 2 and 8.
func TestWavefrontContendedStudySmoke(t *testing.T) {
	m := topology.NewMesh(8, 8)
	run := func(cal sim.Calendar, wavefront bool, shards int) *SingleSourceStats {
		oldCal := sim.DefaultCalendar()
		sim.SetDefaultCalendar(cal)
		defer sim.SetDefaultCalendar(oldCal)
		oldWF := sim.DefaultWavefront()
		sim.SetDefaultWavefront(wavefront)
		defer sim.SetDefaultWavefront(oldWF)
		ncfg := network.DefaultConfig()
		ncfg.Shards = shards
		st, err := ContendedCVStudy(m, broadcast.NewRD(), ContendedConfig{
			Net: ncfg, Length: 32, Broadcasts: 24, Interarrival: 2, Seed: 7,
		})
		if err != nil {
			t.Fatalf("calendar=%v wavefront=%v shards=%d: %v", cal, wavefront, shards, err)
		}
		return st
	}
	base := run(sim.Ladder, true, 1)
	for _, cal := range []sim.Calendar{sim.Ladder, sim.Heap} {
		for _, wavefront := range []bool{true, false} {
			for _, shards := range []int{1, 2, 8} {
				if got := run(cal, wavefront, shards); !reflect.DeepEqual(base, got) {
					t.Errorf("calendar=%v wavefront=%v shards=%d diverges:\nbase: %+v\ngot:  %+v",
						cal, wavefront, shards, base, got)
				}
			}
		}
	}
}

// TestWavefrontStudiesIdenticalQuick is the differential suite: random
// meshes and tori × dense/lazy stores × fault plans × shard counts,
// contended and degraded workloads — wavefront on and off must be
// byte-identical at every point.
func TestWavefrontStudiesIdenticalQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("differential suite is not short")
	}
	prop := func(c wfDiffCase) bool {
		for _, shards := range []int{1, c.shards} {
			on, err := c.contended(true, shards)
			if err != nil {
				t.Logf("case %+v: contended wavefront-on shards=%d: %v", c, shards, err)
				return false
			}
			off, err := c.contended(false, shards)
			if err != nil {
				t.Logf("case %+v: contended wavefront-off shards=%d: %v", c, shards, err)
				return false
			}
			if !reflect.DeepEqual(on, off) {
				t.Logf("case %+v: contended shards=%d diverges\non:  %+v\noff: %+v", c, shards, on, off)
				return false
			}
			dOn, err := c.degraded(true, shards)
			if err != nil {
				t.Logf("case %+v: degraded wavefront-on shards=%d: %v", c, shards, err)
				return false
			}
			dOff, err := c.degraded(false, shards)
			if err != nil {
				t.Logf("case %+v: degraded wavefront-off shards=%d: %v", c, shards, err)
				return false
			}
			if !reflect.DeepEqual(dOn, dOff) {
				t.Logf("case %+v: degraded shards=%d diverges\non:  %+v\noff: %+v", c, shards, dOn, dOff)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 25,
		Rand:     rand.New(rand.NewSource(20260809)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
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
	if !s.Wavefront() {
		t.Skip("wavefront disabled by default in this build")
	}
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
