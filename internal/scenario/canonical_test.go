package scenario

import (
	"bytes"
	"testing"
)

// The cache key must be a pure function of what a run produces:
// identical for orchestration-only differences, distinct for anything
// that changes the artifact bytes.

func mustKey(t *testing.T, s Spec) string {
	t.Helper()
	k, err := s.Key()
	if err != nil {
		t.Fatalf("Key(%s): %v", s.Name, err)
	}
	return k
}

func TestCanonicalIsDeterministic(t *testing.T) {
	s := Spec{Name: "fig2", Workload: Contended}
	a, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("canonical encoding not deterministic:\n%s\n%s", a, b)
	}
}

func TestKeyIgnoresOrchestrationKnobs(t *testing.T) {
	base := Spec{Name: "fig1", Workload: Uncontended, Seed: 2005}
	withProcs := base
	withProcs.Procs = 7
	withProgress := base
	withProgress.Progress = func(done, total int) {}
	k := mustKey(t, base)
	if got := mustKey(t, withProcs); got != k {
		t.Errorf("Procs changed the key: %s vs %s", k, got)
	}
	if got := mustKey(t, withProgress); got != k {
		t.Errorf("Progress changed the key: %s vs %s", k, got)
	}
}

func TestKeyNormalisesDefaultSpellings(t *testing.T) {
	implicit := Spec{Name: "fig1", Workload: Uncontended}
	explicit := implicit
	explicit.Store = "auto"
	if a, b := mustKey(t, implicit), mustKey(t, explicit); a != b {
		t.Errorf(`Store "" and "auto" keyed differently: %s vs %s`, a, b)
	}
	// A fully spelled-out resolved spec must key like its shorthand:
	// applyDefaults is part of canonicalisation.
	resolved := implicit.applyDefaults()
	resolved.Progress = nil
	if a, b := mustKey(t, implicit), mustKey(t, resolved); a != b {
		t.Errorf("resolved spec keyed differently from its shorthand: %s vs %s", a, b)
	}
	uniform := Spec{Name: "fig3", Workload: Mixed, Pattern: PatternUniform}
	unset := Spec{Name: "fig3", Workload: Mixed}
	if a, b := mustKey(t, uniform), mustKey(t, unset); a != b {
		t.Errorf(`Pattern "" and "uniform" keyed differently: %s vs %s`, a, b)
	}
}

func TestKeySeparatesSemanticChanges(t *testing.T) {
	base := Spec{Name: "fig2", Workload: Contended, Seed: 2005}
	seen := map[string]string{mustKey(t, base): "base"}
	for label, mutate := range map[string]func(*Spec){
		"seed":     func(s *Spec) { s.Seed = 7 },
		"reps":     func(s *Spec) { s.Reps = 6 },
		"length":   func(s *Spec) { s.Length = 32 },
		"topo":     func(s *Spec) { s.Topo = TopoTorus },
		"store":    func(s *Spec) { s.Store = "lazy" },
		"metric":   func(s *Spec) { s.Metric = MetricLatency },
		"name":     func(s *Spec) { s.Name = "fig2x" },
		"algos":    func(s *Spec) { s.Algorithms = []string{"RD", "EDN"} },
		"faults":   func(s *Spec) { s.Faults = &FaultSpec{Links: 4} },
		"artifact": func(s *Spec) { s.Artifact = ArtifactTable1 },
	} {
		s := base
		mutate(&s)
		k := mustKey(t, s)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collided with %q on key %s", label, prev, k)
		}
		seen[k] = label
	}
}

func TestCanonicalRejectsInvalidSpecs(t *testing.T) {
	bad := Spec{Name: "bad", Workload: "levitating"}
	if _, err := bad.Canonical(); err == nil {
		t.Error("Canonical accepted an invalid workload")
	}
	if _, err := bad.Key(); err == nil {
		t.Error("Key accepted an invalid workload")
	}
}

func TestRegistryKeysAreDistinct(t *testing.T) {
	seen := map[string]string{}
	for _, name := range Names() {
		spec, err := Build(name)
		if err != nil {
			t.Fatal(err)
		}
		k := mustKey(t, spec)
		if prev, dup := seen[k]; dup {
			t.Errorf("scenarios %q and %q share key %s", name, prev, k)
		}
		seen[k] = name
	}
}
