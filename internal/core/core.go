// Package core implements Coded-Path Routing (CPR), the substrate of
// the paper's DB and AB broadcast algorithms (Al-Dubai &
// Ould-Khaoua, IPCCC 2001). A CPR message is a wormhole worm whose
// header carries a 2-bit control field telling each router what to do
// when the worm passes: forward only, deliver a copy and keep
// forwarding (the multidestination capability borrowed from path-based
// multicast), or deliver and terminate. CPR exploits wormhole
// switching's distance insensitivity: all destinations on one coded
// path receive the message within a few flit times of each other,
// which is what gives DB and AB their low arrival-time variance.
package core

import (
	"fmt"

	"repro/internal/topology"
)

// ControlField is the 2-bit action code in a CPR header flit.
type ControlField uint8

const (
	// Pass tells the router to forward the worm without delivering.
	Pass ControlField = 0b00
	// Receive tells the router to consume the worm: it is the final
	// destination of the coded path.
	Receive ControlField = 0b01
	// ReceiveAndPass tells the router to deliver a local copy while
	// simultaneously forwarding the worm to the next router — the key
	// CPR capability (control value 10 in the paper's AB description).
	ReceiveAndPass ControlField = 0b10
	// ReceiveAndRelay marks a delivery point that also re-initiates
	// the broadcast in a later message-passing step (control value 11
	// in the paper: corners that act as new sources).
	ReceiveAndRelay ControlField = 0b11
)

// String returns the mnemonic for the control value.
func (c ControlField) String() string {
	switch c {
	case Pass:
		return "pass"
	case Receive:
		return "receive"
	case ReceiveAndPass:
		return "receive+pass"
	case ReceiveAndRelay:
		return "receive+relay"
	default:
		return fmt.Sprintf("control(%d)", uint8(c))
	}
}

// Delivers reports whether the control value delivers a local copy.
func (c ControlField) Delivers() bool { return c != Pass }

// Stop reports whether the control value terminates the worm.
func (c ControlField) Stop() bool { return c == Receive }

// CodedPath is one CPR worm: an ordered list of waypoint nodes the
// worm visits and delivers at. Routing between consecutive waypoints
// is delegated to the underlying routing function (deterministic
// dimension-order for DB, west-first adaptive for AB); routers strictly
// between waypoints see control value Pass.
//
// A CodedPath is a small value holding one pointer, its Waypoints
// slice. Planners store paths by value in their plan's sends and slice
// every path's waypoints out of one plan-wide arena, so a cached plan
// costs the garbage collector a handful of objects, not one per send.
type CodedPath struct {
	// Source injects the worm. It is not a delivery point.
	Source topology.NodeID
	// Waypoints are the delivery points in visit order. The final
	// waypoint receives control value Receive; earlier ones
	// ReceiveAndPass (or ReceiveAndRelay when marked).
	Waypoints []topology.NodeID
	// Relays marks waypoints that act as sources in a later
	// message-passing step: bit i marks waypoint i, so only the first
	// 64 waypoints can be marked. Purely informational for analysis.
	Relays uint64
}

// Control returns the control field presented to waypoint i.
func (p CodedPath) Control(i int) ControlField {
	if i == len(p.Waypoints)-1 {
		return Receive
	}
	if i < 64 && p.Relays&(1<<uint(i)) != 0 {
		return ReceiveAndRelay
	}
	return ReceiveAndPass
}

// Validate checks structural sanity: a source and waypoints inside
// the mesh, at least one waypoint, no waypoint equal to the source, no
// immediate duplicates.
func (p CodedPath) Validate(m *topology.Mesh) error {
	if len(p.Waypoints) == 0 {
		return fmt.Errorf("core: coded path from %d has no waypoints", p.Source)
	}
	if int(p.Source) < 0 || int(p.Source) >= m.Nodes() {
		return fmt.Errorf("core: coded path source %d out of range", p.Source)
	}
	prev := p.Source
	for i, w := range p.Waypoints {
		if w == prev {
			return fmt.Errorf("core: coded path from %d repeats node %d at waypoint %d", p.Source, w, i)
		}
		if int(w) < 0 || int(w) >= m.Nodes() {
			return fmt.Errorf("core: coded path waypoint %d out of range", w)
		}
		prev = w
	}
	return nil
}

// Destinations returns the delivery nodes of the path (the waypoints).
func (p CodedPath) Destinations() []topology.NodeID {
	return append([]topology.NodeID(nil), p.Waypoints...)
}
