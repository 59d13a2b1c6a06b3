package broadcast

import (
	"math"
	"testing"

	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/topology"
)

// runPlanned executes one planned broadcast on a fresh network and
// returns its result.
func runPlanned(t *testing.T, m *topology.Mesh, algo Algorithm, stream bool) *Result {
	t.Helper()
	plan, err := algo.Plan(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg := network.DefaultConfig()
	cfg.Ports = algo.Ports()
	s := sim.New()
	net := network.MustNew(s, m, cfg)
	r, err := Execute(net, plan, Options{Length: 32, Stream: stream})
	if err != nil {
		t.Fatal(err)
	}
	s.Run()
	if !r.Done {
		t.Fatalf("%s stream=%v: broadcast stalled at %d informed", algo.Name(), stream, r.Informed)
	}
	return r
}

// TestStreamingMatchesRetained pins the streaming accumulators
// against the retained arrays on every algorithm: identical coverage
// and completion, and destination mean/CV equal up to floating-point
// summation order (streaming accumulates in arrival order, retained
// in node-ID order — same multiset of samples).
func TestStreamingMatchesRetained(t *testing.T) {
	m := topology.NewMesh(5, 4, 3)
	for _, algo := range []Algorithm{NewRD(), NewEDN(), NewDB(), NewAB()} {
		ret := runPlanned(t, m, algo, false)
		str := runPlanned(t, m, algo, true)
		if ret.Streaming() || !str.Streaming() {
			t.Fatalf("%s: Streaming() flags wrong (retained %v, streaming %v)", algo.Name(), ret.Streaming(), str.Streaming())
		}
		if ret.Informed != str.Informed || ret.DestinationCount() != str.DestinationCount() {
			t.Fatalf("%s: coverage differs: retained %d/%d, streaming %d/%d",
				algo.Name(), ret.Informed, ret.DestinationCount(), str.Informed, str.DestinationCount())
		}
		if ret.Finish != str.Finish || ret.Start != str.Start {
			t.Fatalf("%s: timing differs: retained [%v,%v], streaming [%v,%v]",
				algo.Name(), ret.Start, ret.Finish, str.Start, str.Finish)
		}
		closeEnough := func(a, b float64) bool {
			return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
		}
		if !closeEnough(ret.DestinationMean(), str.DestinationMean()) {
			t.Fatalf("%s: mean differs: retained %v, streaming %v", algo.Name(), ret.DestinationMean(), str.DestinationMean())
		}
		if !closeEnough(ret.DestinationCV(), str.DestinationCV()) {
			t.Fatalf("%s: CV differs: retained %v, streaming %v", algo.Name(), ret.DestinationCV(), str.DestinationCV())
		}
	}
}

// TestStreamingResultGuards pins the streaming result's contract:
// per-destination arrays are gone, and the accessors that need them
// say so loudly instead of returning garbage.
func TestStreamingResultGuards(t *testing.T) {
	m := topology.NewMesh(4, 4)
	r := runPlanned(t, m, NewDB(), true)
	if r.Arrival != nil {
		t.Fatal("streaming result retains the arrival array")
	}
	mustPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s on a streaming result did not panic", name)
			}
		}()
		f()
	}
	mustPanic("DestinationLatencies", func() { r.DestinationLatencies() })
}

// TestRunSingleStreamsAtThreshold pins the auto-streaming switchover:
// below StreamThreshold RunSingle retains per-destination arrays,
// keeping every golden-pinned scale bit-exactly on the historical
// path.
func TestRunSingleStreamsAtThreshold(t *testing.T) {
	m := topology.NewMesh(8, 4)
	r, err := RunSingle(m, NewDB(), 0, network.DefaultConfig(), 16)
	if err != nil {
		t.Fatal(err)
	}
	if r.Streaming() {
		t.Fatalf("RunSingle streams below the threshold (%d nodes < %d)", m.Nodes(), StreamThreshold)
	}
	if m.Nodes() >= StreamThreshold {
		t.Fatalf("test mesh unexpectedly at scale: %d nodes", m.Nodes())
	}
}
