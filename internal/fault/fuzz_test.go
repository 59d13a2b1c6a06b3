package fault_test

import (
	"encoding/binary"
	"math"
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// decodeFaultPlans reads two fault plans from raw, five bytes an
// event: a kind byte, a 16-bit time and a 16-bit signed target. The
// kind byte's low three bits pick the kind (values past NodeUp are
// unknown kinds), and its high bits can turn the time into NaN, +Inf
// or a negative value, so every rejection Validate knows is
// reachable. split ends the first plan after that many events.
func decodeFaultPlans(raw []byte, split int) (a, b *fault.Plan) {
	a, b = &fault.Plan{}, &fault.Plan{}
	for k := 0; len(raw) >= 5; k++ {
		kind := fault.Kind(raw[0] & 7)
		at := sim.Time(binary.LittleEndian.Uint16(raw[1:])) / 16
		switch raw[0] >> 5 {
		case 5:
			at = math.NaN()
		case 6:
			at = math.Inf(1)
		case 7:
			at = -at - 1
		}
		target := int(int16(binary.LittleEndian.Uint16(raw[3:])))
		e := fault.Event{Kind: kind, At: at, Channel: topology.ChannelID(target), Node: topology.NodeID(target)}
		if k < split {
			a.Events = append(a.Events, e)
		} else {
			b.Events = append(b.Events, e)
		}
		raw = raw[5:]
	}
	return a, b
}

// FuzzFaultPlan applies decoded fault plans to a small mesh or torus
// carrying unicast traffic. Either Validate rejects the merged plan
// (and Apply refuses it too, scheduling nothing), or Apply succeeds,
// the run drains, and the network's invariants hold: no lane held or
// queued by a worm that is not in flight, nobody waiting on a dead
// lane, and every injected worm finished or dropped.
func FuzzFaultPlan(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 16, 0, 3, 0, 1, 64, 0, 3, 0}, uint8(1), uint8(0))
	f.Add([]byte{2, 0, 0, 4, 0, 3, 32, 0, 4, 0, 0, 8, 0, 9, 0}, uint8(2), uint8(3))
	f.Add([]byte{0, 0, 0, 255, 127}, uint8(0), uint8(1))
	f.Add([]byte{0xa0, 0, 0, 1, 0}, uint8(0), uint8(2))
	f.Add([]byte{0xe0, 1, 0, 1, 0}, uint8(1), uint8(1))
	f.Add([]byte{5, 0, 0, 1, 0}, uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, raw []byte, split, shape uint8) {
		if len(raw) > 5*64 {
			return // plans of a few dozen events cover every path
		}
		m := topology.NewMesh(3, 3)
		cfg := network.DefaultConfig()
		if shape&1 != 0 {
			m = topology.NewTorus(3, 3)
			cfg.VCs = 2
		}
		cfg.DeadWait = float64(shape>>1&3) * 5 // immediate drops and timed parking both
		a, b := decodeFaultPlans(raw, int(split))
		plan := fault.Merge(a, b)

		s := sim.New()
		net := network.MustNew(s, m, cfg)
		if err := plan.Validate(m); err != nil {
			if plan.Apply(net) == nil {
				t.Fatalf("Validate rejects the plan (%v) but Apply accepts it", err)
			}
			if s.Pending() != 0 {
				t.Fatalf("a rejected plan left %d records on the calendar", s.Pending())
			}
			return
		}
		if err := plan.Apply(net); err != nil {
			t.Fatalf("Validate accepts the plan but Apply refuses it: %v", err)
		}
		var sel routing.Selector
		if shape&8 != 0 {
			sel = routing.WestFirstFor(m)
		}
		for j := 0; j < 6; j++ {
			src := topology.NodeID(j % m.Nodes())
			dst := topology.NodeID((3*j + 4) % m.Nodes())
			if src == dst {
				continue
			}
			err := net.Send(sim.Time(j)*40, &network.Transfer{
				Source: src, Waypoints: []topology.NodeID{dst}, Length: 16, Selector: sel,
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		s.Run()
		if err := net.CheckInvariants(); err != nil {
			t.Fatalf("after the drain: %v", err)
		}
		if net.InFlight() != 0 {
			t.Fatalf("%d worms neither finished nor dropped after the drain", net.InFlight())
		}
	})
}
