package metrics

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// A network handed out by network.Acquire may be recycled from an
// earlier run. Recycling must be unobservable: the same staggered
// broadcasts on a fresh network and on one recycled after a different
// workload (another algorithm, port count, seed, message length and
// fault plan) must leave identical arrivals, clocks, event counts,
// batch census, per-channel occupancy and worm counts, on any
// topology, either store, pristine or under faults.

// recycledOutcome is everything a drained twin leaves observable,
// including what only a reset can clear.
type recycledOutcome struct {
	outcome
	Wavefront          sim.WavefrontStats
	Channels           []network.ChannelStats
	Injected, Finished uint64
}

func (tw *twin) recycledOutcome() recycledOutcome {
	o := recycledOutcome{
		outcome: tw.outcome(), Wavefront: tw.s.WavefrontStats(),
		Injected: tw.net.Injected(), Finished: tw.net.Finished(),
	}
	for ch := 0; ch < tw.net.Topology().ChannelSlots(); ch++ {
		o.Channels = append(o.Channels, tw.net.ChannelStatsFor(topology.ChannelID(ch)))
	}
	return o
}

// priorWorkload is the different run the recycled network carries
// first: the next algorithm the case's dimensionality supports,
// another seed, fewer and longer messages, and, by the low bit of that
// seed, no faults or the complementary ones (4−links failed links,
// churn flipped), so a pristine or faulted case follows either kind.
func (c twinCase) priorWorkload() twinCase {
	p := c
	p.algoIx = (c.algoIx + 1) % []int{1: 1, 2: 3, 3: 4}[len(c.dims)] // as Generate draws
	p.seed = ^c.seed
	p.links, p.churn = 0, false
	if p.seed&1 == 1 {
		p.links, p.churn = 4-c.links, !c.churn
	}
	p.broadcasts, p.length = 5, 24
	return p
}

// faulted reports whether the case runs under a fault plan; every
// generated mesh has a link to fail.
func (c twinCase) faulted() bool { return c.links > 0 || c.churn }

// freshVsRecycled runs the case on a new network and on one Acquire
// hands out after the prior workload was Released, and reports
// whether the second was actually recycled.
func (c twinCase) freshVsRecycled() (recycled bool, err error) {
	m := c.mesh()
	prior := c.priorWorkload()
	used, err := network.Acquire(m, prior.config())
	if err != nil {
		return false, err
	}
	ptw, err := prior.buildOn(m, used)
	if err != nil {
		return false, err
	}
	ptw.s.Run()
	if err := used.Reset(); err != nil {
		return false, fmt.Errorf("reset after the prior workload: %v", err)
	}
	used.Release()

	net, err := network.Acquire(m, c.config())
	if err != nil {
		return false, err
	}
	recycled = net == used
	rtw, err := c.buildOn(m, net)
	if err != nil {
		return false, err
	}
	ftw, err := c.build()
	if err != nil {
		return false, err
	}
	rtw.s.Run()
	ftw.s.Run()
	if r, f := rtw.recycledOutcome(), ftw.recycledOutcome(); !reflect.DeepEqual(r, f) {
		return recycled, fmt.Errorf("recycled=%v network diverges\nrecycled: %+v\nfresh:    %+v", recycled, r, f)
	}
	if err := net.Reset(); err != nil {
		return recycled, fmt.Errorf("reset after the case: %v", err)
	}
	if err := net.CheckInvariants(); err != nil {
		return recycled, fmt.Errorf("after the final reset: %v", err)
	}
	return recycled, nil
}

// TestRecycledMatchesFreshQuick is the fresh-vs-recycled differential
// over random meshes and tori, dense and lazy stores, and fault plans.
// Whether Acquire recycles is up to sync.Pool, which may drop a Put;
// over the whole suite it must have recycled at least once, so the
// comparison is never fresh against fresh only. All four pairings of a
// pristine or faulted prior run with a pristine or faulted case occur.
func TestRecycledMatchesFreshQuick(t *testing.T) {
	hits := 0
	pairings := map[[2]bool]int{} // {prior faulted, case faulted} → cases
	prop := func(c twinCase) bool {
		pairings[[2]bool{c.priorWorkload().faulted(), c.faulted()}]++
		recycled, err := c.freshVsRecycled()
		if err != nil {
			t.Logf("case %+v: %v", c, err)
			return false
		}
		if recycled {
			hits++
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 40,
		Rand:     rand.New(rand.NewSource(20261019)),
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d of 40 cases ran on a recycled network; {prior, case} faulted pairings: %v", hits, pairings)
	if hits == 0 {
		t.Fatal("Acquire never recycled a released network")
	}
	if len(pairings) != 4 {
		t.Fatalf("only %d of the 4 pristine/faulted pairings ran: %v", len(pairings), pairings)
	}
}

// TestRecycledNetworksAcrossGoroutines: studies on several goroutines
// share the pool and one mesh; each must still read exactly what a
// serial run reads. Run with -race to check that a network is never
// handed to two owners.
func TestRecycledNetworksAcrossGoroutines(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	cfg := ContendedConfig{Net: network.DefaultConfig(), Length: 16, Broadcasts: 6, Interarrival: 2, Seed: 3}
	want := make([]float64, len(twinAlgos))
	for k, algo := range twinAlgos {
		st, err := ContendedCVStudy(m, algo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = st.CV.Mean()
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				k := (g + i) % len(twinAlgos)
				st, err := ContendedCVStudy(m, twinAlgos[k], cfg)
				if err != nil {
					t.Error(err)
					return
				}
				if got := st.CV.Mean(); got != want[k] {
					t.Errorf("goroutine %d: %s mean CV %v, serial %v", g, twinAlgos[k].Name(), got, want[k])
				}
			}
		}()
	}
	wg.Wait()
}
