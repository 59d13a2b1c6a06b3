package core

import (
	"testing"
	"testing/quick"

	"repro/internal/topology"
)

func TestControlFieldSemantics(t *testing.T) {
	cases := []struct {
		c        ControlField
		delivers bool
		stop     bool
		str      string
	}{
		{Pass, false, false, "pass"},
		{Receive, true, true, "receive"},
		{ReceiveAndPass, true, false, "receive+pass"},
		{ReceiveAndRelay, true, false, "receive+relay"},
	}
	for _, tc := range cases {
		if tc.c.Delivers() != tc.delivers {
			t.Errorf("%v.Delivers() = %v", tc.c, tc.c.Delivers())
		}
		if tc.c.Stop() != tc.stop {
			t.Errorf("%v.Stop() = %v", tc.c, tc.c.Stop())
		}
		if tc.c.String() != tc.str {
			t.Errorf("%v.String() = %q", tc.c, tc.c.String())
		}
	}
	if ControlField(9).String() != "control(9)" {
		t.Errorf("unknown control prints %q", ControlField(9).String())
	}
}

func TestCodedPathControls(t *testing.T) {
	p := CodedPath{
		Source:    0,
		Waypoints: []topology.NodeID{1, 2, 3},
		Relays:    1 << 0,
	}
	if p.Control(0) != ReceiveAndRelay {
		t.Errorf("waypoint 0 control = %v", p.Control(0))
	}
	if p.Control(1) != ReceiveAndPass {
		t.Errorf("waypoint 1 control = %v", p.Control(1))
	}
	if p.Control(2) != Receive {
		t.Errorf("final waypoint control = %v", p.Control(2))
	}
}

func TestValidate(t *testing.T) {
	m := topology.NewMesh(4, 4)
	good := ChainPath(0, 1, 2)
	if err := good.Validate(m); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}
	if err := (&CodedPath{Source: 0}).Validate(m); err == nil {
		t.Error("empty path accepted")
	}
	if err := ChainPath(0, 0).Validate(m); err == nil {
		t.Error("self-waypoint accepted")
	}
	if err := ChainPath(0, 1, 1).Validate(m); err == nil {
		t.Error("immediate duplicate accepted")
	}
	if err := ChainPath(0, topology.NodeID(99)).Validate(m); err == nil {
		t.Error("out-of-range waypoint accepted")
	}
	if err := ChainPath(topology.NodeID(99), 1).Validate(m); err == nil {
		t.Error("out-of-range source accepted")
	}
}

func TestLinePath(t *testing.T) {
	m := topology.NewMesh(6, 4)
	p := AppendLine(nil, m, m.ID(1, 2), 0, 4)
	want := []topology.NodeID{m.ID(2, 2), m.ID(3, 2), m.ID(4, 2)}
	if len(p) != len(want) {
		t.Fatalf("waypoints = %v", p)
	}
	for i := range want {
		if p[i] != want[i] {
			t.Fatalf("waypoint %d = %d, want %d", i, p[i], want[i])
		}
	}
	// Downward direction, appended after the first line.
	both := AppendLine(p, m, m.ID(3, 1), 0, 0)
	down := both[len(p):]
	if len(down) != 3 || down[2] != m.ID(0, 1) {
		t.Fatalf("down waypoints = %v", down)
	}
	if both[0] != want[0] {
		t.Fatalf("append clobbered the earlier line: %v", both)
	}
}

func TestLinePathPanicsOnZeroExtent(t *testing.T) {
	m := topology.NewMesh(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("zero-extent line did not panic")
		}
	}()
	AppendLine(nil, m, m.ID(2, 0), 0, 2)
}

func TestSegmentPath(t *testing.T) {
	m := topology.NewMesh(8, 2)
	// Source left of the segment.
	p := AppendSegment(nil, m, m.ID(0, 1), 0, 2, 4)
	if len(p) != 4 {
		t.Fatalf("waypoints = %v", p)
	}
	last := p[len(p)-1]
	if m.CoordAxis(last, 0) != 4 {
		t.Fatalf("segment end = %d", m.CoordAxis(last, 0))
	}
	// Source right of the segment walks down to lo.
	q := AppendSegment(nil, m, m.ID(7, 0), 0, 5, 6)
	qlast := q[len(q)-1]
	if m.CoordAxis(qlast, 0) != 5 {
		t.Fatalf("segment end = %d", m.CoordAxis(qlast, 0))
	}
}

func TestSegmentPathPanicsInsideSegment(t *testing.T) {
	m := topology.NewMesh(8, 2)
	defer func() {
		if recover() == nil {
			t.Error("inside-segment source did not panic")
		}
	}()
	AppendSegment(nil, m, m.ID(3, 0), 0, 2, 4)
}

// TestSnakePathCoversRectangle property-checks that a snake from any
// corner covers the whole rectangle exactly once with adjacent steps.
func TestSnakePathCoversRectangle(t *testing.T) {
	m := topology.NewMesh(8, 8, 4)
	f := func(cornerPick uint8, w, h uint8) bool {
		fastHi := int(w%7) + 1 // 1..7
		slowHi := int(h%3) + 1 // 1..3
		cx, cz := 0, 0
		if cornerPick&1 != 0 {
			cx = fastHi
		}
		if cornerPick&2 != 0 {
			cz = slowHi
		}
		src := m.ID(0, cx, cz) // rectangle over dims (1, 2) at x=0
		p := AppendSnake(nil, m, src, 1, 2, 0, fastHi, 0, slowHi)

		total := (fastHi + 1) * (slowHi + 1)
		if len(p) != total-1 {
			return false
		}
		seen := map[topology.NodeID]bool{src: true}
		prev := src
		for _, wpt := range p {
			if seen[wpt] {
				return false // revisit
			}
			if m.Distance(prev, wpt) != 1 {
				return false // non-adjacent snake step
			}
			if m.CoordAxis(wpt, 0) != 0 {
				return false // left the rectangle plane
			}
			seen[wpt] = true
			prev = wpt
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSnakePathPanicsOffCorner(t *testing.T) {
	m := topology.NewMesh(4, 4)
	defer func() {
		if recover() == nil {
			t.Error("non-corner snake source did not panic")
		}
	}()
	AppendSnake(nil, m, m.ID(1, 1), 0, 1, 0, 3, 0, 3)
}

func TestChainPathCopies(t *testing.T) {
	wps := []topology.NodeID{1, 2}
	p := ChainPath(0, wps...)
	wps[0] = 9
	if p.Waypoints[0] != 1 {
		t.Error("ChainPath aliases caller slice")
	}
}

func TestDestinationsCopies(t *testing.T) {
	p := ChainPath(0, 1, 2)
	d := p.Destinations()
	d[0] = 9
	if p.Waypoints[0] != 1 {
		t.Error("Destinations aliases internal slice")
	}
}
