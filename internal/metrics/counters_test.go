package metrics

import (
	"fmt"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/fault"
	"repro/internal/topology"
)

// TestSaturationCounters pins the deterministic work counters of the
// four 8×8×8 saturation studies at seed 2005 (the benchmarked
// workload): model events fired and calendar records drained. Both
// are machine-independent, so any change to either is a change in
// what the simulation does, not in how fast a machine does it; a
// calendar change that only reorganises storage must leave them
// exactly as they are.
func TestSaturationCounters(t *testing.T) {
	want := map[string]struct{ fired, records uint64 }{
		"RD":  {172320, 111000},
		"EDN": {162400, 101080},
		"DB":  {84188, 53148},
		"AB":  {67790, 44990},
	}
	m := topology.NewMesh(SaturationDims()...)
	cfg := SaturationConfig(2005)
	for _, algo := range paperAlgorithms {
		st, err := ContendedCVStudy(m, algo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		w := want[algo.Name()]
		if st.Events != w.fired || st.Records != w.records {
			t.Errorf("%s: %d model events and %d calendar records, want %d and %d",
				algo.Name(), st.Events, st.Records, w.fired, w.records)
		}
	}
}

// TestDegradedCounters pins the same counters, plus the drop count,
// for the fault family's study: RD and AB on 8×8×8 at seed 2005 with
// the saturation workload, pristine and with 16 failed links. They
// must not move when a faulted study's setup (its network, fault
// plan or broadcast plans) is shared or recycled.
func TestDegradedCounters(t *testing.T) {
	want := map[string]struct{ fired, records, dropped uint64 }{
		"RD/0":  {172320, 111000, 0},
		"RD/16": {155738, 100502, 165},
		"AB/0":  {67790, 44990, 0},
		"AB/16": {53058, 37018, 200},
	}
	m := topology.NewMesh(SaturationDims()...)
	sat := SaturationConfig(2005)
	for _, algo := range []broadcast.Algorithm{broadcast.NewRD(), broadcast.NewAB()} {
		for _, links := range []int{0, 16} {
			plan, err := fault.RandomLinks(m, 2005, links, 0)
			if err != nil {
				t.Fatal(err)
			}
			st, err := DegradedStudy(m, algo, DegradedConfig{
				Net: sat.Net, Length: sat.Length, Broadcasts: sat.Broadcasts,
				Interarrival: sat.Interarrival, Seed: sat.Seed, Faults: plan,
			})
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", algo.Name(), links)
			w := want[key]
			if st.Events != w.fired || st.Records != w.records || st.Dropped != w.dropped {
				t.Errorf("%s: %d model events, %d calendar records and %d drops, want %d, %d and %d",
					key, st.Events, st.Records, st.Dropped, w.fired, w.records, w.dropped)
			}
		}
	}
}
