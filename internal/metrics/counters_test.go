package metrics

import (
	"testing"

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
