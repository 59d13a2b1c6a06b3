package metrics

import (
	"runtime"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/topology"
)

// warmCost runs f warm times, then reports the mean heap allocations
// and bytes of runs further calls, measured on one P as
// testing.AllocsPerRun does.
func warmCost(warm, runs int, f func()) (allocs, bytes float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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

var paperAlgorithms = []broadcast.Algorithm{
	broadcast.NewRD(), broadcast.NewEDN(), broadcast.NewDB(), broadcast.NewAB(),
}

// TestRunSingleBundleAllocationBudget pins the warm cost of Fig. 1's
// largest point: one RunSingle per paper algorithm on 16×16×16 at
// L=100. A warm bundle plans afresh but recycles its networks, so the
// bytes are the four plans, validation scratch and the results; a
// network built per broadcast again (about 1.9 MB each) breaks the
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
// other, and a network and simulator built per study (about 2.8 MB
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

// The ceilings sit at most a quarter above the warm costs measured on
// linux/amd64 with Go 1.24 (RunSingle bundle about 290 allocs and
// 1.21 MB, saturation bundle about 3,050–3,700 allocs and 5.30–5.50
// MB), and the faulted study's about a third above its cost (about
// 410 allocs and 200 KB). Pooled validation scratch took about 170 KB
// off the first bundle and 870 KB off the second; worms that carry
// one held-lane slice and record no path took about 220 allocs and
// 130 KB off the first. With a fresh network per run and
// the process-wide plan cache, the first two bundles cost 11,924
// allocs and 12.3 MB, and 5,984 allocs and 8.2 MB; a faulted study
// whose network is never recycled costs about 1,560 allocs and 3.0 MB.
const (
	runSingleBundleAllocs  = 365
	runSingleBundleBytes   = 1_500_000
	saturationBundleAllocs = 4_150
	saturationBundleBytes  = 6_600_000
	faultedStudyAllocs     = 550
	faultedStudyBytes      = 270_000
)
