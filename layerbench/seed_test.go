package main

import (
	"context"
	"encoding/json"
	"os"
	"reflect"
	"testing"
	"time"

	"repro/internal/service"
)

func TestSeedFixesOpSequence(t *testing.T) {
	a, b := newSaturation(heldOutSeed), newSaturation(heldOutSeed)
	f, g := newFig1Large(heldOutSeed), newFig1Large(heldOutSeed)
	other := newFig1Large(defaultSeed)
	sameSources := true
	for i := 0; i < 500; i++ {
		if a.opSeed(i) != b.opSeed(i) || f.source(i) != g.source(i) {
			t.Fatalf("op %d differs between two runs at one seed", i)
		}
		sameSources = sameSources && f.source(i) == other.source(i)
	}
	if sameSources {
		t.Error("two seeds drew the same fig1-large sources")
	}
	if newSaturation(defaultSeed).opSeed(0) != defaultSeed {
		t.Error("saturation op 0 must study the run seed itself (BENCH_pr10.json's workload)")
	}
}

func TestSeedFixesRequestStream(t *testing.T) {
	const n = 5000
	cold := make(map[string]int)
	hot := 0
	differs := false
	for i := 0; i < n; i++ {
		r := streamAt(heldOutSeed, i)
		if !reflect.DeepEqual(r, streamAt(heldOutSeed, i)) {
			t.Fatalf("request %d differs between two draws at one seed", i)
		}
		differs = differs || !reflect.DeepEqual(r, streamAt(defaultSeed, i))
		if r.Hot >= 0 {
			hot++
			continue
		}
		key, err := json.Marshal(r.Req)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := cold[string(key)]; dup {
			t.Fatalf("fresh requests %d and %d are identical", prev, i)
		}
		cold[string(key)] = i
		if *r.Req.Seed == hotSeed {
			t.Fatalf("fresh request %d uses the hot seed", i)
		}
	}
	if hot != n*9/10 {
		t.Errorf("%d of %d requests hot, want 90%%", hot, n)
	}
	if !differs {
		t.Error("two seeds drew the same stream")
	}
}

// TestStreamMissHitPattern replays the start of a stream on fresh
// in-process servers: the outcome of every request is the same each
// time, and it is the designed one — a fresh request misses, a hot one
// misses the first time it is seen and hits after.
func TestStreamMissHitPattern(t *testing.T) {
	const n = 60
	replay := func() []service.Outcome {
		srv := service.New(service.Config{Procs: serviceProcs, CacheBytes: serviceCacheBytes})
		defer srv.Close()
		out := make([]service.Outcome, n)
		for i := range out {
			r := streamAt(heldOutSeed, i)
			_, oc, _, err := srv.Run(context.Background(), &r.Req)
			if err != nil {
				t.Fatalf("request %d: %v", i, err)
			}
			out[i] = oc
		}
		return out
	}
	first := replay()
	if second := replay(); !reflect.DeepEqual(first, second) {
		t.Fatalf("outcomes differ between replays:\n%v\n%v", first, second)
	}
	seen := make(map[int]bool)
	for i, oc := range first {
		r := streamAt(heldOutSeed, i)
		want := service.OutcomeMiss
		if r.Hot >= 0 && seen[r.Hot] {
			want = service.OutcomeHit
		}
		if r.Hot >= 0 {
			seen[r.Hot] = true
		}
		if oc != want {
			t.Errorf("request %d (hot %d): %s, want %s", i, r.Hot, oc, want)
		}
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metric
// tables the program prints from drifting apart.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricName) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for k := range want {
			if got[k].Name != want[k].name || got[k].Unit != want[k].unit {
				t.Errorf("%s %d: BENCHMARK.json has %s [%s], the program %s [%s]",
					kind, k, got[k].Name, got[k].Unit, want[k].name, want[k].unit)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloadNames))
	}
	for k, w := range doc.Workloads {
		if w.Name != workloadNames[k] {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the program", k, w.Name, workloadNames[k])
		}
	}
}

// TestServiceMixClosedLoop drives a live server from its client,
// traced, and then shuts it down: every reply passes its check
// and close waits for the server to stop.
func TestServiceMixClosedLoop(t *testing.T) {
	w, err := newServiceMix(heldOutSeed)
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	l := closedLoop(300*time.Millisecond, 0, 0, w.tracedOp(tr), nil)
	w.close()
	if l.attempted == 0 || l.failed != 0 {
		t.Fatalf("%d of %d requests failed: %v", l.failed, l.attempted, l.errs)
	}
	if len(tr.snapshot()) != l.attempted || w.requests != l.attempted {
		t.Errorf("%d spans and %d tallied requests for %d attempted", len(tr.snapshot()), w.requests, l.attempted)
	}
	if w.hits == 0 || w.hits == w.requests {
		t.Errorf("%d hits of %d requests: want both hits and misses", w.hits, w.requests)
	}
}
