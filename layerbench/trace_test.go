package main

import (
	"testing"

	"repro/internal/broadcast"
)

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "bench.op", Start: 0, End: 100},
		// Two overlapping children cover [10, 50) once: 40.
		{ID: 1, Parent: 0, Name: "sim.Run", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "network.New", Start: 20, End: 50},
		// A child reaching past its parent is clipped to [90, 100): 10.
		{ID: 3, Parent: 0, Name: "broadcast.Execute", Start: 90, End: 120},
		// A child wholly inside an already covered stretch adds nothing.
		{ID: 4, Parent: 0, Name: "sim.New", Start: 25, End: 28},
		// Grandchildren reduce their own parent only.
		{ID: 5, Parent: 2, Name: "routing.step", Start: 20, End: 35},
		{ID: 6, Parent: 5, Name: "sim.At", Start: 21, End: 22},
		// Another op's root is nobody's child.
		{ID: 7, Parent: -1, Name: "bench.op", Start: 200, End: 260},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 15, 30, 3, 15 - 1, 1, 60}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d (%s): self %d, want %d", i, spans[i].Name, got[i], want[i])
		}
	}
	layers := selfByLayer(spans)
	if layers["bench"] != 50+60 || layers["sim"] != 20+3+1 || layers["routing"] != 14 {
		t.Errorf("self by layer: %v", layers)
	}
}

func TestPlanObserverClassifiesByPointer(t *testing.T) {
	o := newPlanObserver()
	a, b := &broadcast.Plan{}, &broadcast.Plan{}
	k1 := planKey{"mesh-8x8x8", "RD", 3}
	k2 := planKey{"mesh-8x8x8", "AB", 3}
	steps := []struct {
		k    planKey
		p    *broadcast.Plan
		want bool
	}{
		{k1, a, false}, // first sight of a key is a miss
		{k1, a, true},  // the same plan again is a hit
		{k2, a, false}, // another key is classified on its own
		{k1, b, false}, // a rebuilt plan (cache dropped) is a miss
		{k1, b, true},  // and the rebuilt plan then hits
		{k1, a, false}, // a structurally equal but different pointer misses
	}
	for n, s := range steps {
		if got := o.observe(s.k, s.p); got != s.want {
			t.Errorf("step %d: hit=%v, want %v", n, got, s.want)
		}
	}
	if o.calls != len(steps) || o.hits != 2 {
		t.Errorf("calls=%d hits=%d, want %d and 2", o.calls, o.hits, len(steps))
	}
}

func TestCPULayerOfFunction(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*Simulator).Run":          "sim",
		"repro/internal/network.(*Network).advance":    "network",
		"repro/internal/topology.(*Mesh).Neighbors":    "other",
		"runtime.mallocgc":                             "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall": "runtime",
		"net/http.(*conn).serve":                       "other",
		"main.closedLoop.func1":                        "other",
	} {
		if got := layerOf(packageOf(fn)); got != want {
			t.Errorf("%s: layer %q, want %q", fn, got, want)
		}
	}
}
