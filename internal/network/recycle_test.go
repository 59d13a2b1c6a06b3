package network

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// recycleLoad sends a burst of contending unicasts and multidestination
// worms across m from staggered starts, so ports queue and lanes wait,
// and returns every delivery in the order it fired.
func recycleLoad(n *Network, m *topology.Mesh, seed uint64) *[]delivery {
	log := new([]delivery)
	rng := sim.NewRNG(seed, 5)
	for i := 0; i < 24; i++ {
		src := topology.NodeID(rng.Intn(m.Nodes()))
		dst := topology.NodeID(rng.Intn(m.Nodes()))
		if dst == src {
			continue
		}
		wps := []topology.NodeID{dst}
		if far := topology.NodeID(m.Nodes() - 1); far != dst && far != src && i%3 == 0 {
			wps = append(wps, far)
		}
		tr := n.AllocTransfers(1)
		tr[0] = Transfer{
			Source: src, Waypoints: wps, Length: 8 + rng.Intn(24),
			OnDeliver: func(node topology.NodeID, at sim.Time) {
				*log = append(*log, delivery{node, at})
			},
		}
		n.MustSend(float64(rng.Intn(4)), &tr[0])
	}
	return log
}

type delivery struct {
	node topology.NodeID
	at   sim.Time
}

// recycleState is what a drained network and its simulator leave
// observable.
type recycleState struct {
	Log                []delivery
	Now                sim.Time
	Fired              uint64
	Wavefront          sim.WavefrontStats
	Injected, Finished uint64
	Channels           []ChannelStats
	Mean               float64
}

func readRecycleState(n *Network, log []delivery) recycleState {
	st := recycleState{
		Log: log, Now: n.sim.Now(), Fired: n.sim.Fired(), Wavefront: n.sim.WavefrontStats(),
		Injected: n.Injected(), Finished: n.Finished(), Mean: n.MeanUtilization(),
	}
	for ch := 0; ch < n.topo.ChannelSlots(); ch++ {
		st.Channels = append(st.Channels, n.ChannelStatsFor(topology.ChannelID(ch)))
	}
	return st
}

// TestRecycledNetworkMatchesFresh: a network reset after one workload,
// then rebound to another port count and timing the way Acquire does,
// must carry the next workload exactly as a new network would — in
// both stores.
func TestRecycledNetworkMatchesFresh(t *testing.T) {
	for _, store := range []StoreMode{StoreDense, StoreLazy} {
		m := topology.NewMesh(6, 6)
		prior := DefaultConfig()
		prior.Store, prior.Ports, prior.Ts = store, 3, 0.15
		cfg := DefaultConfig()
		cfg.Store = store

		fresh := MustNew(sim.New(), m, cfg)
		log := recycleLoad(fresh, m, 2)
		fresh.sim.Run()
		want := readRecycleState(fresh, *log)

		n := MustNew(sim.New(), m, prior)
		recycleLoad(n, m, 1)
		n.sim.Run()
		if err := n.Reset(); err != nil {
			t.Fatalf("%v: reset: %v", store, err)
		}
		n.sim.Reset()
		if !n.fits(m, cfg) {
			t.Fatalf("%v: a reset network over the same mesh does not fit", store)
		}
		n.configure(cfg)
		if lazy, pages := n.LazyStore(); lazy && pages != 0 {
			t.Fatalf("%v: reset kept %d pages", store, pages)
		}
		log = recycleLoad(n, m, 2)
		n.sim.Run()
		if got := readRecycleState(n, *log); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: recycled network diverges\ngot  %+v\nwant %+v", store, got, want)
		}
		if got, want := n.Config(), fresh.Config(); got != want {
			t.Fatalf("%v: config %+v, want %+v", store, got, want)
		}
	}
}

// TestAcquireFitsOnlyItsLayout: a pooled network is reused only over
// the same mesh with the same lane count and store.
func TestAcquireFitsOnlyItsLayout(t *testing.T) {
	m := topology.NewMesh(4, 4)
	n := MustNew(sim.New(), m, DefaultConfig())
	cfg := DefaultConfig()
	cfg.Ports, cfg.Ts = 3, 0.15
	if !n.fits(m, cfg) {
		t.Error("timing and ports must not block reuse")
	}
	vcs := DefaultConfig()
	vcs.VCs = 2
	lazy := DefaultConfig()
	lazy.Store = StoreLazy
	for name, ok := range map[string]bool{
		"other mesh of the same shape": n.fits(topology.NewMesh(4, 4), DefaultConfig()),
		"other lane count":             n.fits(m, vcs),
		"other store":                  n.fits(m, lazy),
	} {
		if ok {
			t.Errorf("%s: fits", name)
		}
	}
	if _, err := Acquire(m, Config{Beta: -1}); err == nil {
		t.Error("Acquire accepted an invalid config")
	}
}

// TestResetRefuses: Reset leaves a network that is still carrying a
// run exactly as it was and reports why. A drained network that saw
// faults is accepted: Reset brings every link and node back up.
func TestResetRefuses(t *testing.T) {
	m := topology.NewMesh(4, 1)
	send := func(n *Network) {
		n.MustSend(0, &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(3, 0)}, Length: 16})
	}
	cfg := DefaultConfig()
	cfg.DeadWait = 10
	cases := []struct {
		name, want string
		setup      func(*Network)
	}{
		{"in-flight worms", "in flight", func(n *Network) {
			send(n)
			if err := n.sim.RunUntil(n.cfg.Ts + n.cfg.Beta); err != nil {
				t.Fatal(err)
			}
		}},
		{"parked worms", "parked", func(n *Network) {
			n.FailLink(m.Channel(m.ID(1, 0), m.ID(2, 0)))
			send(n)
			if err := n.sim.RunUntil(5); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		n := MustNew(sim.New(), m, cfg)
		c.setup(n)
		inj, fin, parked, flight := n.Injected(), n.Finished(), n.Parked(), n.InFlight()
		err := n.Reset()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Reset returned %v, want an error naming %q", c.name, err, c.want)
		}
		if n.Injected() != inj || n.Finished() != fin || n.Parked() != parked || n.InFlight() != flight {
			t.Errorf("%s: refused Reset changed the network", c.name)
		}
		if err := n.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}

	// Applied faults: one link fails and heals, another stays down and
	// a node dies, so the worm parks and drops after its grace.
	n := MustNew(sim.New(), m, cfg)
	n.FailLink(m.Channel(m.ID(0, 0), m.ID(1, 0)))
	n.RestoreLink(m.Channel(m.ID(0, 0), m.ID(1, 0)))
	n.FailLink(m.Channel(m.ID(1, 0), m.ID(2, 0)))
	n.FailNode(m.ID(3, 0))
	send(n)
	n.sim.Run()
	if n.Dropped() != 1 {
		t.Fatalf("faulted run dropped %d worms, want 1", n.Dropped())
	}
	if err := n.Reset(); err != nil {
		t.Fatalf("applied faults: Reset refused a drained network: %v", err)
	}
	for ch := 0; ch < m.ChannelSlots(); ch++ {
		if !n.LinkAlive(topology.ChannelID(ch)) {
			t.Errorf("applied faults: channel %d still down after Reset", ch)
		}
	}
	for id := 0; id < m.Nodes(); id++ {
		if !n.NodeAlive(topology.NodeID(id)) {
			t.Errorf("applied faults: node %d still down after Reset", id)
		}
	}
	if n.Dropped() != 0 {
		t.Errorf("applied faults: Reset left %d drops", n.Dropped())
	}
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("applied faults: %v", err)
	}
}

// TestResetChecksDrainedState: Reset audits the drained run before it
// wipes it, so a broken counter identity, a lane left held or a port
// left in use makes it refuse, changing nothing, and Release counts
// the refusal.
func TestResetChecksDrainedState(t *testing.T) {
	m := topology.NewMesh(4, 4)
	cases := []struct {
		name    string
		store   StoreMode
		corrupt func(n *Network)
		want    string
	}{
		{"finished bumped", StoreDense, func(n *Network) { n.finished++ }, "injected"},
		{"lane left held on a lazy network", StoreLazy, func(n *Network) {
			n.lane(topology.ChannelID(5)).holder = &worm{}
		}, "not in flight"},
		{"port left in use on a dense network", StoreDense, func(n *Network) {
			n.port(m.ID(1, 2)).inUse++
		}, "injection ports in use"},
		{"port left in use on a lazy network", StoreLazy, func(n *Network) {
			n.port(m.ID(3, 3)).inUse++
		}, "injection ports in use"},
		{"port queue left behind", StoreDense, func(n *Network) {
			qpush(&n.port(m.ID(0, 1)).qtail, &worm{})
		}, "queue empty false"},
	}
	for _, c := range cases {
		cfg := DefaultConfig()
		cfg.Store = c.store
		n := MustNew(sim.New(), m, cfg)
		recycleLoad(n, m, 3)
		n.sim.Run()
		if n.InFlight() != 0 || n.Finished() == 0 {
			t.Fatalf("%s: setup did not drain a run", c.name)
		}
		if err := n.Reset(); err != nil {
			t.Fatalf("%s: drained run refused: %v", c.name, err)
		}
		n.sim.Reset()
		recycleLoad(n, m, 4)
		n.sim.Run()
		c.corrupt(n)
		inj, fin := n.Injected(), n.Finished()
		_, pages := n.LazyStore()
		err := n.Reset()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Reset returned %v, want an error naming %q", c.name, err, c.want)
		}
		if _, p := n.LazyStore(); n.Injected() != inj || n.Finished() != fin || p != pages {
			t.Errorf("%s: refused Reset changed the network", c.name)
		}
		before := ReleaseRefusals()
		n.Release()
		if got := ReleaseRefusals(); got != before+1 {
			t.Errorf("%s: refusals went from %d to %d, want one more", c.name, before, got)
		}
	}
}

// TestResetWipesTouchedLanes: a dense Reset clears exactly the lanes
// its run acquired, which leaves every lane as New made it.
func TestResetWipesTouchedLanes(t *testing.T) {
	m := topology.NewMesh(6, 6)
	n := MustNew(sim.New(), m, DefaultConfig())
	recycleLoad(n, m, 5)
	n.sim.Run()
	if len(n.touched) == 0 {
		t.Fatal("a run recorded no touched lanes")
	}
	if err := n.Reset(); err != nil {
		t.Fatal(err)
	}
	if len(n.touched) != 0 {
		t.Errorf("Reset kept %d touched lanes", len(n.touched))
	}
	for i := range n.channels {
		if n.channels[i] != (channelState{}) {
			t.Fatalf("lane %d not wiped: %+v", i, n.channels[i])
		}
	}
}

// TestAllocTransfersDoNotAlias: transfers handed out earlier are never
// handed out again before Reset, even once a chunk fills; Reset
// rewinds the slab to zeroed entries, in one chunk that fits the
// whole last run.
func TestAllocTransfersDoNotAlias(t *testing.T) {
	n := MustNew(sim.New(), topology.NewMesh(4, 4), DefaultConfig())
	first := n.AllocTransfers(3)
	first[0].Tag = "kept"
	for i := 0; i < 10; i++ {
		n.AllocTransfers(5)[4].Tag = "later"
	}
	if first[0].Tag != "kept" {
		t.Fatal("a later allocation handed out an earlier transfer")
	}
	if len(first) != 3 || cap(first) != 3 {
		t.Fatalf("slice len %d cap %d, want 3/3", len(first), cap(first))
	}
	if err := n.Reset(); err != nil {
		t.Fatal(err)
	}
	if cap(n.slab) != 53 {
		t.Fatalf("reset slab holds %d transfers, want the last run's 53", cap(n.slab))
	}
	run := n.AllocTransfers(53)
	for i := range run {
		if run[i].Tag != "" {
			t.Fatalf("rewound slab handed out a used transfer %+v", run[i])
		}
	}
	if &run[0] != &n.slab[0] {
		t.Fatal("a run that fits the reset chunk allocated another")
	}
	run[0].Tag = "stale"
	if err := n.Reset(); err != nil {
		t.Fatal(err)
	}
	if again := n.AllocTransfers(1); again[0].Tag != "" || &again[0] != &run[0] {
		t.Fatalf("reset did not rewind and clear the chunk: %+v", again[0])
	}
}

// TestRecycledNetworkChangesGoroutines: a network released on one
// goroutine and acquired on another carries its free worms with it.
// The acquiring goroutine's run builds no worm and matches a fresh
// network's byte for byte.
func TestRecycledNetworkChangesGoroutines(t *testing.T) {
	m := topology.NewMesh(6, 6)
	cfg := DefaultConfig()
	fresh := MustNew(sim.New(), m, cfg)
	log := recycleLoad(fresh, m, 2)
	fresh.sim.Run()
	want := readRecycleState(fresh, *log)

	// on runs f on a goroutine of its own and waits for it.
	on := func(f func()) {
		done := make(chan struct{})
		go func() { defer close(done); f() }()
		<-done
	}
	// The pool may drop a Put (the race detector drops a random
	// quarter of them), so a network that does not come back is
	// retried with a new one.
	for try := 0; try < 16; try++ {
		var n, back *Network
		var err error
		on(func() {
			if n, err = Acquire(m, cfg); err == nil {
				recycleLoad(n, m, 2)
				n.sim.Run()
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		warm := make(map[*worm]bool)
		for _, w := range n.freeWorms {
			warm[w] = true
		}
		on(n.Release)
		var got recycleState
		on(func() {
			if back, err = Acquire(m, cfg); err == nil && back == n {
				log := recycleLoad(back, m, 2)
				back.sim.Run()
				got = readRecycleState(back, *log)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if back != n {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("network acquired on another goroutine diverges\ngot  %+v\nwant %+v", got, want)
		}
		if len(warm) == 0 || len(n.freeWorms) != len(warm) {
			t.Fatalf("free list went from %d to %d worms", len(warm), len(n.freeWorms))
		}
		for _, w := range n.freeWorms {
			if !warm[w] {
				t.Fatal("the run on the acquiring goroutine built a worm")
			}
		}
		n.Release()
		return
	}
	t.Fatal("a released network never came back from Acquire")
}
