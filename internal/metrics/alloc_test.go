package metrics

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/topology"
)

// warmCost runs f warm times, then reports the mean heap allocations
// and bytes of runs further calls, measured on one P as
// testing.AllocsPerRun does. The collector is paused throughout: a
// collection empties the sync.Pools the recycled networks and scratch
// live in, so where one landed would decide what the calls cost.
func warmCost(warm, runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for i := 0; i < warm; i++ {
		f()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(runs),
		float64(after.TotalAlloc-before.TotalAlloc) / float64(runs)
}

// coldCost reports the heap allocations and bytes of one call of f.
func coldCost(f func()) (allocs, bytes float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs), float64(after.TotalAlloc - before.TotalAlloc)
}

var paperAlgorithms = []broadcast.Algorithm{
	broadcast.NewRD(), broadcast.NewEDN(), broadcast.NewDB(), broadcast.NewAB(),
}

// TestRunSingleBundleAllocationBudget pins the warm cost of Fig. 1's
// largest point: one RunSingle per paper algorithm on 16×16×16 at
// L=100. A warm bundle plans afresh but recycles its networks, so the
// bytes are the four plans, validation scratch and the results; a
// network built per broadcast again (about 1.3 MB each) breaks the
// bytes ceiling at once.
func TestRunSingleBundleAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so warm networks are rebuilt")
	}
	m := topology.NewMesh(16, 16, 16)
	src := topology.NodeID(80)
	allocs, bytes := warmCost(2, 10, func() {
		for _, algo := range paperAlgorithms {
			r, err := broadcast.RunSingle(m, algo, src, network.DefaultConfig(), 100)
			if err != nil || !r.Done {
				t.Fatalf("%s: done=%v err=%v", algo.Name(), r != nil && r.Done, err)
			}
		}
	})
	t.Logf("warm 16x16x16 RunSingle bundle: %.0f allocs, %.0f bytes", allocs, bytes)
	const maxAllocs, maxBytes = runSingleBundleAllocs, runSingleBundleBytes
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("warm bundle costs %.0f allocs and %.0f bytes, budget %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestSaturationStudyAllocationBudget pins the warm cost of one
// saturation study per paper algorithm (40 overlapping 64-flit
// broadcasts on 8×8×8): its plans, results and closures, but no
// network and no growth of the recycled calendar or transfer slab.
func TestSaturationStudyAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so warm networks are rebuilt")
	}
	m := topology.NewMesh(SaturationDims()...)
	cfg := SaturationConfig(2005)
	allocs, bytes := warmCost(2, 5, func() {
		for _, algo := range paperAlgorithms {
			if _, err := ContendedCVStudy(m, algo, cfg); err != nil {
				t.Fatal(err)
			}
		}
	})
	t.Logf("warm saturation bundle: %.0f allocs, %.0f bytes", allocs, bytes)
	const maxAllocs, maxBytes = saturationBundleAllocs, saturationBundleBytes
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("warm saturation bundle costs %.0f allocs and %.0f bytes, budget %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestFaultedStudyAllocationBudget pins the warm cost of one faulted
// study as a fault-family cell runs it: RD's saturation workload on
// 8×8×8 with 8 failed links, its broadcast plans taken from a memo the
// warm-up filled. What is left is the results, closures and fault
// records, but no network: a faulted network is recycled like any
// other, and a network and simulator built per study (about 4.7 MB
// more) break the bytes ceiling at once.
func TestFaultedStudyAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so warm networks are rebuilt")
	}
	m := topology.NewMesh(SaturationDims()...)
	plan, err := fault.RandomLinks(m, 2005, 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	sat := SaturationConfig(2005)
	cfg := DegradedConfig{
		Net: sat.Net, Length: sat.Length, Broadcasts: sat.Broadcasts,
		Interarrival: sat.Interarrival, Seed: sat.Seed, Faults: plan,
		Plans: &broadcast.Memo{},
	}
	allocs, bytes := warmCost(2, 10, func() {
		if _, err := DegradedStudy(m, broadcast.NewRD(), cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm faulted study: %.0f allocs, %.0f bytes", allocs, bytes)
	const maxAllocs, maxBytes = faultedStudyAllocs, faultedStudyBytes
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("warm faulted study costs %.0f allocs and %.0f bytes, budget %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// TestScaleMulticastAllocationBudget pins the scale workload: one
// 64-destination, 256-flit multicast from node 0 on the implicit
// 128×128×64 mesh (2^20 nodes) over the lazy store, through
// broadcast.RunMulticast. The sparse traffic touches a few thousand
// lane pages, so the bytes are those pages, the lazy store's page
// tables, the arrival bitset and the plan. Both the first op, which
// builds its network, and warm ops, which recycle it, are bounded: a
// recycled dense store resets without allocating, so only the cold op
// shows a dense fallback (about 227 MB), and the acquired network must
// report a lazy store. Coarser pages or a node-sized arrival slice
// break the ceilings on either. The event count and the arrival CV are
// the ones BENCH_pr7.json records for both stores.
func TestScaleMulticastAllocationBudget(t *testing.T) {
	m := topology.NewMeshImplicit(128, 128, 64)
	dests := make([]topology.NodeID, 64)
	for i := range dests {
		dests[i] = topology.NodeID((i + 1) * (m.Nodes() / (len(dests) + 1)))
	}
	cfg := network.DefaultConfig()
	cfg.Store = network.StoreLazy
	op := func() (events uint64, cv float64) {
		arrival, events, err := broadcast.RunMulticast(m, broadcast.NewMulticast(8), 0, dests, cfg, 256)
		if err != nil {
			t.Fatal(err)
		}
		var acc stats.Accumulator
		for _, at := range arrival {
			acc.Add(at)
		}
		return events, acc.CV()
	}
	const maxAllocs, maxBytes = scaleMulticastAllocs, scaleMulticastBytes
	allocs, bytes := coldCost(func() {
		if events, cv := op(); events != scaleEvents || math.Abs(cv-scaleCV) > 1e-12 {
			t.Fatalf("scale multicast fired %d events with arrival CV %.15g, want %d and %.15g", events, cv, scaleEvents, scaleCV)
		}
	})
	t.Logf("cold scale multicast: %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("cold scale multicast costs %.0f allocs and %.0f bytes, budget %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
	net, err := network.Acquire(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	lazy, _ := net.LazyStore()
	net.Release()
	if !lazy {
		t.Fatalf("network acquired with Store %v has a dense store", cfg.Store)
	}
	if raceEnabled {
		t.Skip("sync.Pool drops a random quarter of its Puts under -race, so warm networks are rebuilt")
	}
	allocs, bytes = warmCost(1, 3, func() { op() })
	t.Logf("warm scale multicast: %.0f allocs, %.0f bytes", allocs, bytes)
	if allocs > maxAllocs || bytes > maxBytes {
		t.Errorf("warm scale multicast costs %.0f allocs and %.0f bytes, budget %d and %d", allocs, bytes, maxAllocs, maxBytes)
	}
}

// The scale multicast's exact counters, as BENCH_pr7.json records them.
const (
	scaleEvents = 3463
	scaleCV     = 0.494264983688433
)

// The ceilings sit at most a quarter above the warm costs measured on
// linux/amd64 with Go 1.24, which with the collector paused repeat to
// within an allocation or two from run to run: RunSingle bundle 61
// allocs and 954 KB, saturation bundle 2,745 allocs and 5.10 MB,
// faulted study 410 allocs and 194 KB, scale multicast 609 allocs and
// 10.5 MB (its first op, building the network, 678 allocs and
// 10.7 MB). A network built per run instead of recycled costs the
// bundles 6.4 MB and 16.2 MB and the faulted study 4.8 MB; the dense
// store costs the scale multicast 227 MB and a node-sized arrival
// slice 8.4 MB.
const (
	runSingleBundleAllocs  = 76
	runSingleBundleBytes   = 1_190_000
	saturationBundleAllocs = 3_430
	saturationBundleBytes  = 6_370_000
	faultedStudyAllocs     = 510
	faultedStudyBytes      = 240_000
	scaleMulticastAllocs   = 760
	scaleMulticastBytes    = 13_150_000
)
