package network

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/topology"
)

// The drain tail's timing is fixed the moment a worm's header reaches
// its last waypoint: with tcomp that instant and tdone = tcomp + L·β,
// the tail leaves the channel k hops before the last at tdone - k·β,
// clamped to tcomp. These tests pin every tail action of that model
// to the bit — deliveries, the port release and retirement — and the
// model-event count the simulator reports for them, however the
// network packs the actions into calendar records.

// linePath returns the nodes a dimension-order worm from (0,0) visits
// on an 8×8 mesh when it travels hops channels: along row 0 first,
// then up column 7.
func linePath(m *topology.Mesh, hops int) []topology.NodeID {
	var nodes []topology.NodeID
	for i := 1; i <= hops; i++ {
		if i <= 7 {
			nodes = append(nodes, m.ID(i, 0))
		} else {
			nodes = append(nodes, m.ID(7, i-7))
		}
	}
	return nodes
}

// activeWorm finds the in-flight worm carrying t.
func activeWorm(n *Network, t *Transfer) *worm {
	for w := n.activeHead; w != nil; w = w.activeNext {
		if w.t == t {
			return w
		}
	}
	return nil
}

// TestDrainTailExact drives one worm A over an idle 8×8 mesh and
// checks every tail instant exactly. A second worm B waits behind A
// for the source's single injection port, so the instant A's tail
// frees the port is B's grant time.
func TestDrainTailExact(t *testing.T) {
	for _, hops := range []int{1, 6, 14} {
		lengths := []int{1, 64}
		if hops-1 > 1 {
			lengths = append(lengths, hops-1)
		}
		for _, length := range lengths {
			for _, every := range []bool{true, false} {
				name := fmt.Sprintf("hops=%d/L=%d/every=%v", hops, length, every)
				t.Run(name, func(t *testing.T) { checkTail(t, hops, length, every) })
			}
		}
	}
}

func checkTail(t *testing.T, hops, length int, every bool) {
	s, m, n := testNet(t, 8, 8)
	cfg := n.Config()
	beta, hop := cfg.Beta, n.hop
	path := linePath(m, hops)
	wps := path[len(path)-1:]
	if every {
		wps = path
	}

	var gotDel []sim.Time
	gotDone := sim.Time(-1)
	a := &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: wps,
		Length:    length,
		OnDeliver: func(_ topology.NodeID, at sim.Time) { gotDel = append(gotDel, at) },
		OnDone:    func(at sim.Time) { gotDone = at },
	}
	// B leaves the source northwards, sharing no channel with A.
	bGrant := sim.Time(-1)
	b := &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(0, 1)}, Length: 4}
	b.OnDeliver = func(topology.NodeID, sim.Time) { bGrant = activeWorm(n, b).portAt }
	n.MustSend(0, a)
	n.MustSend(0, b)
	s.Run()

	// The clock reaches tcomp the way the simulator advances it: Ts
	// after the port grant at 0, then one hop delay per channel.
	tcomp := 0 + cfg.Ts
	for range hops {
		tcomp += hop
	}
	tdone := tcomp + float64(length)*beta
	tail := func(k int) sim.Time {
		at := tdone - float64(k)*beta
		if at < tcomp {
			at = tcomp
		}
		return at
	}
	for i, wp := range wps {
		h := 1
		for path[h-1] != wp {
			h++
		}
		if i >= len(gotDel) {
			t.Fatalf("only %d of %d deliveries fired", len(gotDel), len(wps))
		}
		if want := tail(hops - h); gotDel[i] != want {
			t.Errorf("delivery %d (hop %d) at %v, want %v", i, h, gotDel[i], want)
		}
	}
	if len(gotDel) != len(wps) {
		t.Errorf("%d deliveries fired, want %d", len(gotDel), len(wps))
	}
	if want := tail(hops - 1); bGrant != want {
		t.Errorf("queued worm granted the port at %v, want %v", bGrant, want)
	}
	if gotDone != tdone {
		t.Errorf("done at %v, want %v", gotDone, tdone)
	}

	// One model event per action: request, Ts advance, one advance and
	// one release per hop, each delivery, port release, retirement.
	perWorm := func(hops, deliveries int) uint64 { return uint64(1 + 1 + 2*hops + deliveries + 1 + 1) }
	if want := perWorm(hops, len(wps)) + perWorm(1, 1); s.Fired() != want {
		t.Errorf("fired %d model events, want %d", s.Fired(), want)
	}
	if n.InFlight() != 0 {
		t.Fatalf("%d worms still in flight", n.InFlight())
	}
}

// TestContendedShortWormLog runs four overlapping two-stage broadcasts
// of one-flit worms on an 8×8 mesh — row worms from each source, then
// column worms injected by every row node the instant its tail
// arrives — and compares the full callback log against a log recorded
// from the one-record-per-action drain tail. One-flit worms clamp most
// tail instants onto the completion time, and the callbacks that
// inject at the delivery instant exercise the ordering of records an
// action schedules. Regenerate only for an intentional model change:
//
//	UPDATE_TAIL_GOLDEN=1 go test ./internal/network -run ContendedShortWormLog
func TestContendedShortWormLog(t *testing.T) {
	s, m, n := testNet(t, 8, 8)
	var log strings.Builder
	// Each line also snapshots how many lanes are held, how many
	// injection ports are busy and how many worms are in flight, so the
	// order of a tail's actions within one instant shows: a delivery
	// logged before its worm's same-instant releases, after its port
	// release, or a retirement before its deliveries, changes a line.
	record := func(at sim.Time, kind, tag string) {
		held, ports := 0, 0
		for ch := range n.lanes {
			if !n.laneFree(topology.ChannelID(ch)) {
				held++
			}
		}
		for node := range m.Nodes() {
			ports += n.port(topology.NodeID(node)).inUse
		}
		fmt.Fprintf(&log, "%v %s %s held=%d ports=%d inflight=%d\n", at, kind, tag, held, ports, n.InFlight())
	}
	send := func(at sim.Time, tag string, src topology.NodeID, wps []topology.NodeID, onDeliver func(topology.NodeID, sim.Time)) {
		if len(wps) == 0 {
			return
		}
		n.MustSend(at, &Transfer{
			Source:    src,
			Waypoints: wps,
			Length:    1,
			Tag:       tag,
			OnDeliver: func(node topology.NodeID, at sim.Time) {
				record(at, "deliver", fmt.Sprintf("%s@%d", tag, node))
				if onDeliver != nil {
					onDeliver(node, at)
				}
			},
			OnDone: func(at sim.Time) { record(at, "done", tag) },
		})
	}
	line := func(x, y, dx, dy int) []topology.NodeID {
		var nodes []topology.NodeID
		for x, y = x+dx, y+dy; x >= 0 && x < 8 && y >= 0 && y < 8; x, y = x+dx, y+dy {
			nodes = append(nodes, m.ID(x, y))
		}
		return nodes
	}
	columns := func(b int, node topology.NodeID, at sim.Time) {
		c := m.Coord(node)
		send(at, fmt.Sprintf("b%d/up%d", b, node), node, line(c[0], c[1], 0, 1), nil)
		send(at, fmt.Sprintf("b%d/down%d", b, node), node, line(c[0], c[1], 0, -1), nil)
	}
	sources := [][2]int{{3, 3}, {4, 4}, {0, 5}, {6, 1}}
	for b, src := range sources {
		node := m.ID(src[0], src[1])
		start := sim.Time(b) * 0.5
		onRow := func(node topology.NodeID, at sim.Time) { columns(b, node, at) }
		send(start, fmt.Sprintf("b%d/left", b), node, line(src[0], src[1], -1, 0), onRow)
		send(start, fmt.Sprintf("b%d/right", b), node, line(src[0], src[1], 1, 0), onRow)
		columns(b, node, start)
	}
	s.Run()
	if n.InFlight() != 0 {
		t.Fatalf("%d worms still in flight", n.InFlight())
	}
	fmt.Fprintf(&log, "fired %d\n", s.Fired())

	path := filepath.Join("testdata", "tail_contended.log")
	if os.Getenv("UPDATE_TAIL_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(log.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := log.String()
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) && i < len(wl); i++ {
		if gl[i] != wl[i] {
			t.Fatalf("callback log diverges at line %d:\ngot:  %s\nwant: %s", i+1, gl[i], wl[i])
		}
	}
	t.Fatalf("callback log has %d lines, want %d", len(gl), len(wl))
}

// TestStopInsideDrainTail raises Stop from a worm's first delivery.
// Its tail's later actions at that instant must not run, as they would
// not in a wavefront cut short by Stop: no further delivery, no port
// release (it would grant the worm queued behind, scheduling after
// Stop), no retirement. Fired counts exactly the actions that ran.
func TestStopInsideDrainTail(t *testing.T) {
	const hops = 6
	s, m, n := testNet(t, 8, 8)
	dels := 0
	n.MustSend(0, &Transfer{
		Source:    m.ID(0, 0),
		Waypoints: linePath(m, hops),
		Length:    1,
		OnDeliver: func(topology.NodeID, sim.Time) { dels++; s.Stop() },
		OnDone:    func(sim.Time) { t.Error("worm retired after Stop") },
	})
	n.MustSend(0, &Transfer{Source: m.ID(0, 0), Waypoints: []topology.NodeID{m.ID(0, 1)}, Length: 1})
	s.Run()
	if dels != 1 {
		t.Fatalf("%d deliveries ran, want 1", dels)
	}
	if n.InFlight() != 2 {
		t.Fatalf("%d worms in flight, want both", n.InFlight())
	}
	// The releases sharing the first tail instant ran before the
	// delivery: with one flit, every channel but the last frees at
	// tcomp unless rounding lifts tdone - β above it.
	cfg := n.Config()
	tcomp := 0 + cfg.Ts
	for range hops {
		tcomp += n.hop
	}
	tdone := tcomp + cfg.Beta
	first := 0
	for k := hops - 1; k >= 0 && max(tdone-float64(k)*cfg.Beta, tcomp) == tcomp; k-- {
		first++
	}
	// Two requests, the Ts advance, one advance per hop, then the
	// first instant's releases and the one delivery.
	if want := uint64(2 + 1 + hops + first + 1); s.Fired() != want {
		t.Errorf("fired %d model events, want %d", s.Fired(), want)
	}
}
