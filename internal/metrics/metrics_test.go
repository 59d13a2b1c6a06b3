package metrics

import (
	"math"
	"testing"

	"repro/internal/broadcast"
	"repro/internal/network"
	"repro/internal/stats"
	"repro/internal/topology"
)

func TestSingleSourceStudy(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	st, err := SingleSourceStudy(m, broadcast.NewDB(), network.DefaultConfig(), 64, 10, 1)
	if err != nil {
		t.Fatal(err)
	}
	if st.Latency.N() != 10 || st.CV.N() != 10 {
		t.Fatalf("sample counts %d/%d", st.Latency.N(), st.CV.N())
	}
	if st.Latency.Mean() <= 0 {
		t.Errorf("latency mean = %v", st.Latency.Mean())
	}
	if st.CV.Mean() <= 0 || st.CV.Mean() > 1 {
		t.Errorf("CV mean = %v", st.CV.Mean())
	}
	if st.Steps != 4 {
		t.Errorf("DB steps = %d", st.Steps)
	}
	if st.Algorithm != "DB" || st.Nodes != 64 {
		t.Errorf("metadata: %q %d", st.Algorithm, st.Nodes)
	}
}

func TestSingleSourceStudyDeterminism(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	a, err := SingleSourceStudy(m, broadcast.NewAB(), network.DefaultConfig(), 64, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := SingleSourceStudy(m, broadcast.NewAB(), network.DefaultConfig(), 64, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency.Mean() != b.Latency.Mean() || a.CV.Mean() != b.CV.Mean() {
		t.Fatal("same-seed studies diverged")
	}
}

func TestSingleSourceStudyValidation(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	if _, err := SingleSourceStudy(m, broadcast.NewDB(), network.DefaultConfig(), 64, 0, 1); err == nil {
		t.Error("zero replications accepted")
	}
}

func TestContendedCVStudy(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	st, err := ContendedCVStudy(m, broadcast.NewRD(), ContendedConfig{
		Net:          network.DefaultConfig(),
		Length:       64,
		Broadcasts:   15,
		Interarrival: 5,
		Seed:         2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.CV.N() != 15 {
		t.Fatalf("CV samples = %d", st.CV.N())
	}
	if math.IsNaN(st.CV.Mean()) || st.CV.Mean() <= 0 {
		t.Errorf("CV mean = %v", st.CV.Mean())
	}
	// Contention must raise latency above the uncontended baseline.
	base, err := broadcast.RunSingle(m, broadcast.NewRD(), 0, network.DefaultConfig(), 64)
	if err != nil {
		t.Fatal(err)
	}
	if st.Latency.Mean() < base.Latency() {
		t.Errorf("contended mean %v below uncontended %v", st.Latency.Mean(), base.Latency())
	}
}

func TestContendedCVStudyDefaultsInterarrival(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	st, err := ContendedCVStudy(m, broadcast.NewDB(), ContendedConfig{
		Net:        network.DefaultConfig(),
		Length:     32,
		Broadcasts: 5,
		Seed:       4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Latency.N() != 5 {
		t.Fatalf("samples = %d", st.Latency.N())
	}
}

func TestContendedCVStudyValidation(t *testing.T) {
	m := topology.NewMesh(4, 4, 4)
	if _, err := ContendedCVStudy(m, broadcast.NewDB(), ContendedConfig{Net: network.DefaultConfig(), Length: 32}); err == nil {
		t.Error("zero broadcasts accepted")
	}
	if _, err := ContendedCVStudy(m, broadcast.NewDB(), ContendedConfig{Net: network.DefaultConfig(), Broadcasts: 3}); err == nil {
		t.Error("zero length accepted")
	}
}

func TestImprovements(t *testing.T) {
	mk := func(name string, cv float64) *SingleSourceStats {
		st := &SingleSourceStats{Algorithm: name}
		st.CV.Add(cv)
		return st
	}
	rows := Improvements(mk("DB", 0.15), mk("RD", 0.30), mk("EDN", 0.225))
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Baseline != "RD" || math.Abs(rows[0].Improvement-100) > 1e-9 {
		t.Errorf("RD row = %+v", rows[0])
	}
	if rows[1].Baseline != "EDN" || math.Abs(rows[1].Improvement-50) > 1e-9 {
		t.Errorf("EDN row = %+v", rows[1])
	}
	if rows[0].ProposedCV != 0.15 || rows[0].BaselineCV != 0.30 {
		t.Errorf("CV columns wrong: %+v", rows[0])
	}
	// Consistency with the stats helper.
	if got := stats.Improvement(0.15, 0.30); math.Abs(got-rows[0].Improvement) > 1e-12 {
		t.Error("Improvements disagrees with stats.Improvement")
	}
}
