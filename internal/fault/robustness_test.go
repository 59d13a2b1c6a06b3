package fault_test

// Differential robustness suite: randomized fault plans checked
// against the invariants the fault subsystem promises, independent of
// any expected-output golden —
//
//   - no delivered worm ever traversed a dead channel or node, and
//     every delivered route is minimal (the router only offers
//     one-hop-closer candidates, faulted or not);
//   - coverage is monotone non-increasing in the failed-link count
//     for deterministic routing under static fail-stop faults (the
//     nested fault sets of RandomLinks make this a real invariant,
//     not a statistical tendency);
//   - a DegradedStudy with the empty plan is bit-identical to the
//     plain ContendedCVStudy — the fault layer costs nothing when
//     unengaged;
//   - the ladder and heap calendars agree bit-for-bit on a faulted,
//     churning run, extending the kernel cross-check to the fault
//     paths.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/broadcast"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// randomTopo mirrors the routing property suite: 1–3 dimensions of
// size 2–5, mesh or torus.
func randomTopo(r *rand.Rand) *topology.Mesh {
	dims := make([]int, 1+r.Intn(3))
	for i := range dims {
		dims[i] = 2 + r.Intn(4)
	}
	if r.Intn(2) == 0 {
		return topology.NewTorus(dims...)
	}
	return topology.NewMesh(dims...)
}

type pathRecord struct {
	src, dst  topology.NodeID
	path      []topology.NodeID
	delivered bool
	retired   bool
}

// TestRandomFaultsNeverRouteDead drives unicasts across random
// topologies under random static fault sets and audits every realized
// route: a delivered worm's path is minimal and touches only live
// resources, an undelivered worm is an explicit drop, and on a
// fault-free draw everything delivers. Worms are spaced far apart in
// time so the property isolates routing from contention.
func TestRandomFaultsNeverRouteDead(t *testing.T) {
	check := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randomTopo(r)
		cfg := network.DefaultConfig()
		if m.Wrap() {
			cfg.VCs = 2
		}
		cfg.DeadWait = float64(r.Intn(3)) // exercise both immediate and delayed drops

		links := fault.Links(m)
		k := r.Intn(len(links) + 1)
		plan, err := fault.RandomLinks(m, uint64(r.Int63()), k, 0)
		if err != nil {
			t.Fatal(err)
		}
		nodes := 0
		if r.Intn(2) == 0 && m.Nodes() > 2 {
			nodes = r.Intn(2) + 1
			np, err := fault.RandomNodes(m, uint64(r.Int63()), nodes, 0)
			if err != nil {
				t.Fatal(err)
			}
			plan = fault.Merge(plan, np)
		}

		s := sim.New()
		net := network.MustNew(s, m, cfg)
		if err := plan.Apply(net); err != nil {
			t.Fatal(err)
		}
		var sel routing.Selector
		if r.Intn(2) == 0 {
			sel = routing.WestFirstFor(m) // adaptive: the re-route path
		} // else nil: deterministic DOR, the drop path

		var recs []*pathRecord
		for j := 0; j < 6; j++ {
			src := topology.NodeID(r.Intn(m.Nodes()))
			dst := topology.NodeID(r.Intn(m.Nodes()))
			if src == dst {
				continue
			}
			rec := &pathRecord{src: src, dst: dst}
			recs = append(recs, rec)
			err := net.Send(sim.Time(1+10000*j), &network.Transfer{
				Source:    src,
				Waypoints: []topology.NodeID{dst},
				Length:    8,
				Selector:  sel,
				OnPath: func(path []topology.NodeID, delivered bool) {
					rec.path = append([]topology.NodeID(nil), path...)
					rec.delivered = delivered
					rec.retired = true
				},
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		s.Run()

		ok := true
		if err := net.CheckInvariants(); err != nil {
			t.Errorf("seed %d on %s: %v", seed, m.Name(), err)
			ok = false
		}
		for _, rec := range recs {
			if !rec.retired {
				t.Errorf("seed %d on %s: worm %d->%d neither delivered nor dropped",
					seed, m.Name(), rec.src, rec.dst)
				ok = false
				continue
			}
			if k == 0 && nodes == 0 && !rec.delivered {
				t.Errorf("seed %d on %s: fault-free worm %d->%d did not deliver",
					seed, m.Name(), rec.src, rec.dst)
				ok = false
			}
			if !rec.delivered {
				continue
			}
			if rec.path[0] != rec.src || rec.path[len(rec.path)-1] != rec.dst {
				t.Errorf("seed %d on %s: path %v does not join %d and %d",
					seed, m.Name(), rec.path, rec.src, rec.dst)
				ok = false
			}
			if got, want := len(rec.path)-1, m.Distance(rec.src, rec.dst); got != want {
				t.Errorf("seed %d on %s: %d->%d took %d hops, minimal is %d",
					seed, m.Name(), rec.src, rec.dst, got, want)
				ok = false
			}
			for i := 0; i+1 < len(rec.path); i++ {
				ch := m.Channel(rec.path[i], rec.path[i+1])
				if ch == topology.InvalidChannel {
					t.Errorf("seed %d on %s: hop %d->%d has no channel",
						seed, m.Name(), rec.path[i], rec.path[i+1])
					ok = false
					continue
				}
				if !net.LinkAlive(ch) {
					t.Errorf("seed %d on %s: delivered worm %d->%d traversed DEAD channel %d->%d",
						seed, m.Name(), rec.src, rec.dst, rec.path[i], rec.path[i+1])
					ok = false
				}
				if !net.NodeAlive(rec.path[i+1]) {
					t.Errorf("seed %d on %s: delivered worm %d->%d traversed DEAD node %d",
						seed, m.Name(), rec.src, rec.dst, rec.path[i+1])
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestCoverageMonotoneInFailedLinks pins the structural invariant the
// nested link generator buys: under deterministic routing (RD over
// DOR), static t=0 fail-stop faults and zero DeadWait, a broadcast
// delivers to a destination iff every hop of its fixed path is alive
// — timing plays no role — so coverage can only fall as the (nested)
// fault set grows. This does NOT hold for adaptive routing or
// transient faults, which is why the scenario layer's coverage curves
// restrict their monotonicity claims to this regime.
func TestCoverageMonotoneInFailedLinks(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	for seed := uint64(1); seed <= 4; seed++ {
		prev := 2.0
		last := 1.0
		for _, k := range []int{0, 4, 8, 16, 32} {
			plan, err := fault.RandomLinks(m, seed, k, 0)
			if err != nil {
				t.Fatal(err)
			}
			st, err := metrics.DegradedStudy(m, broadcast.NewRD(), metrics.DegradedConfig{
				Net:          network.DefaultConfig(), // DeadWait 0: drops are immediate
				Length:       32,
				Broadcasts:   10,
				Interarrival: 4,
				Seed:         9,
				Faults:       plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			cov := st.Coverage.Mean()
			if cov > prev {
				t.Errorf("seed %d: coverage ROSE from %v to %v at k=%d under a nested fault set",
					seed, prev, cov, k)
			}
			prev, last = cov, cov
		}
		if last >= 1 {
			t.Errorf("seed %d: 32 dead links cost no coverage — the monotonicity check never bit", seed)
		}
	}
}

// TestEmptyPlanMatchesContendedStudy is the zero-cost guarantee at
// study granularity: a DegradedStudy with no fault plan replays
// ContendedCVStudy's exact traffic (same seed stream, same sources,
// same arrivals) and must agree bit-for-bit on every statistic the
// two studies share.
func TestEmptyPlanMatchesContendedStudy(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	for _, algo := range []broadcast.Algorithm{broadcast.NewRD(), broadcast.NewAB()} {
		deg, err := metrics.DegradedStudy(m, algo, metrics.DegradedConfig{
			Net: network.DefaultConfig(), Length: 32, Broadcasts: 12, Interarrival: 3, Seed: 9,
			Faults: &fault.Plan{},
		})
		if err != nil {
			t.Fatal(err)
		}
		cv, err := metrics.ContendedCVStudy(m, algo, metrics.ContendedConfig{
			Net: network.DefaultConfig(), Length: 32, Broadcasts: 12, Interarrival: 3, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		if deg.CV.Mean() != cv.CV.Mean() {
			t.Errorf("%s: empty-plan CV %v != contended CV %v", algo.Name(), deg.CV.Mean(), cv.CV.Mean())
		}
		if deg.Events != cv.Events || deg.SimulatedTime != cv.SimulatedTime {
			t.Errorf("%s: empty-plan run (%d events, T=%v) != contended run (%d events, T=%v)",
				algo.Name(), deg.Events, deg.SimulatedTime, cv.Events, cv.SimulatedTime)
		}
		if deg.Dropped != 0 || deg.Coverage.Min() != 1 {
			t.Errorf("%s: empty plan dropped %d worms, min coverage %v",
				algo.Name(), deg.Dropped, deg.Coverage.Min())
		}
	}
}
