package broadcast

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Options configures one execution of a plan on the network.
type Options struct {
	// Start is the simulated time the source initiates the broadcast.
	Start sim.Time
	// Length is the message length in flits.
	Length int
	// Adaptive is the routing function used by sends marked
	// Adaptive; nil falls back to dimension-order.
	Adaptive routing.Selector
	// Tag labels the broadcast's worms for tracing.
	Tag string
	// OnComplete, if set, fires when the last node receives the
	// message.
	OnComplete func(*Result)
	// Stream, when set, keeps the Result's per-destination state
	// fixed-size: arrivals dedupe through a bitset and destination
	// latencies fold into a running accumulator instead of an
	// Arrival slice with one entry per node. Use it for very large
	// networks; see Result.Streaming for what changes observably.
	Stream bool
}

// Result accumulates the outcome of one broadcast execution. Fields
// fill in as the simulation advances; Done reports completion.
type Result struct {
	// Plan is the executed schedule.
	Plan *Plan
	// Start is the initiation time.
	Start sim.Time
	// Arrival[n] is the absolute time node n received the message;
	// the source's entry equals Start. NaN-free: unreceived nodes
	// hold -1. Nil in streaming mode — use the Destination* accessors,
	// which work in both modes.
	Arrival []sim.Time
	// informed is the streaming-mode arrival bitset (one bit per
	// node, 1/64th the footprint of Arrival), used only for duplicate
	// suppression.
	informed []uint64
	// destLat accumulates per-destination latencies in streaming
	// mode, in ARRIVAL order. A retained Result computes the same
	// moments in node-ID order (see DestinationCV), so the two modes
	// agree to floating-point summation order, not bit-for-bit —
	// which is why nothing golden-pinned streams.
	destLat stats.Accumulator
	// Informed counts nodes holding the message, including the source.
	Informed int
	// Done reports whether every node received the message.
	Done bool
	// Finish is the arrival time at the last node (valid when Done).
	Finish sim.Time
}

// Streaming reports whether the Result holds only fixed-size
// per-destination state (no Arrival slice).
func (r *Result) Streaming() bool { return r.Arrival == nil }

// Latency returns the network-level broadcast latency: time from
// initiation until the last node's arrival.
func (r *Result) Latency() sim.Time { return r.Finish - r.Start }

// DestinationLatencies returns the per-destination latencies (arrival
// minus start) for every node except the source — the sample the
// paper's node-level coefficient of variation is computed over.
func (r *Result) DestinationLatencies() []float64 {
	if r.Streaming() {
		panic("broadcast: DestinationLatencies on a streaming result; use the Destination* accessors")
	}
	out := make([]float64, 0, len(r.Arrival)-1)
	for id, at := range r.Arrival {
		if topology.NodeID(id) == r.Plan.Source {
			continue
		}
		if at >= 0 {
			out = append(out, at-r.Start)
		}
	}
	return out
}

// DestinationCount returns the number of destinations (nodes other
// than the source) that received the message. Works in both modes.
func (r *Result) DestinationCount() int { return r.Informed - 1 }

// destAcc returns an accumulator over the per-destination latencies.
// Retained results fold the sample in node-ID order — the exact
// floating-point op sequence stats.CVOf(DestinationLatencies())
// always performed, so existing outputs stay byte-identical —
// while streaming results hand back the accumulator that filled in
// arrival order.
func (r *Result) destAcc() *stats.Accumulator {
	if r.Streaming() {
		return &r.destLat
	}
	var a stats.Accumulator
	for id, at := range r.Arrival {
		if topology.NodeID(id) == r.Plan.Source || at < 0 {
			continue
		}
		a.Add(at - r.Start)
	}
	return &a
}

// DestinationMean returns the mean per-destination latency, equal to
// stats.MeanOf(DestinationLatencies()) on a retained result.
func (r *Result) DestinationMean() float64 { return r.destAcc().Mean() }

// DestinationCV returns the coefficient of variation of the
// per-destination latencies — the paper's node-level parallelism
// metric — equal to stats.CVOf(DestinationLatencies()) on a retained
// result.
func (r *Result) DestinationCV() float64 { return r.destAcc().CV() }

// Execute wires a plan into the network and returns its Result, which
// fills in as the caller advances the simulator. The plan should have
// been validated; Execute trusts it.
func Execute(net *network.Network, plan *Plan, opt Options) (*Result, error) {
	if opt.Length <= 0 {
		return nil, fmt.Errorf("broadcast: message length %d", opt.Length)
	}
	n := net.Topology().Nodes()
	r := &Result{
		Plan:  plan,
		Start: opt.Start,
	}
	if opt.Stream {
		r.informed = make([]uint64, (n+63)/64)
	} else {
		r.Arrival = make([]sim.Time, n)
		for i := range r.Arrival {
			r.Arrival[i] = -1
		}
	}

	// Each node's sends are a contiguous, step-ordered run of the
	// indexed plan, so the port FIFO serialises them in step order.
	// The index is built once per plan and shared read-only across
	// executions; a node triggers at most once per execution because
	// deliver ignores duplicate arrivals and the source starts
	// informed.
	start := plan.index()
	sends := plan.Sends

	// One backing array holds the execution's transfers: in-flight
	// worms reference entries until their tails drain, so the array
	// lives exactly as long as the broadcast — one allocation instead
	// of one per send.
	transfers := make([]network.Transfer, len(sends))
	nextTransfer := 0

	var deliver func(node topology.NodeID, at sim.Time)
	trigger := func(node topology.NodeID, at sim.Time) {
		if int(node)+1 >= len(start) {
			return // node injects nothing
		}
		for i := start[node]; i < start[node+1]; i++ {
			s := &sends[i]
			sel := routing.Selector(nil)
			if s.Adaptive {
				sel = opt.Adaptive
			}
			t := &transfers[nextTransfer]
			nextTransfer++
			*t = network.Transfer{
				Source:    node,
				Waypoints: s.Path.Waypoints,
				Length:    opt.Length,
				Selector:  sel,
				OnDeliver: deliver,
				Tag:       opt.Tag,
			}
			if err := net.Send(at, t); err != nil {
				panic(fmt.Sprintf("broadcast: planned send rejected: %v", err))
			}
		}
	}

	deliver = func(node topology.NodeID, at sim.Time) {
		if r.Arrival != nil {
			if r.Arrival[node] >= 0 {
				return // duplicate coverage; first arrival counts
			}
			r.Arrival[node] = at
		} else {
			w, bit := node>>6, uint64(1)<<(node&63)
			if r.informed[w]&bit != 0 {
				return // duplicate coverage; first arrival counts
			}
			r.informed[w] |= bit
			r.destLat.Add(at - r.Start)
		}
		r.Informed++
		if r.Informed == n {
			r.Done = true
			r.Finish = at
			if opt.OnComplete != nil {
				opt.OnComplete(r)
			}
		}
		trigger(node, at)
	}

	// The source holds the message at Start; it is never a
	// destination, so the streaming accumulator excludes it.
	if r.Arrival != nil {
		r.Arrival[plan.Source] = opt.Start
	} else {
		r.informed[plan.Source>>6] |= uint64(1) << (plan.Source & 63)
	}
	r.Informed = 1
	if n == 1 {
		r.Done, r.Finish = true, opt.Start
		if opt.OnComplete != nil {
			opt.OnComplete(r)
		}
		return r, nil
	}
	net.Sim().At(opt.Start, func() { trigger(plan.Source, opt.Start) })
	return r, nil
}

// StreamThreshold is the node count at which RunSingle switches its
// Result to streaming statistics. It matches the network layer's
// LazyStoreThreshold: below it every existing golden-pinned study
// keeps its retained, byte-identical Arrival path.
const StreamThreshold = 1 << 16

// RunSingle is the convenience path used by the single-source
// experiments: build a fresh network over m, execute algo's plan from
// src, run the simulation to completion and return the result. At or
// above StreamThreshold nodes the result streams (Result.Streaming).
func RunSingle(m *topology.Mesh, algo Algorithm, src topology.NodeID, cfg network.Config, length int) (*Result, error) {
	plan, err := PlanCached(m, algo, src)
	if err != nil {
		return nil, err
	}
	cfg.Ports = algo.Ports()
	s := sim.New()
	net, err := network.New(s, m, cfg)
	if err != nil {
		return nil, err
	}
	var adaptive routing.Selector
	if needsAdaptive(plan) {
		adaptive = routing.WestFirstFor(m)
	}
	r, err := Execute(net, plan, Options{
		Length:   length,
		Adaptive: adaptive,
		Tag:      "single",
		Stream:   m.Nodes() >= StreamThreshold,
	})
	if err != nil {
		return nil, err
	}
	s.Run()
	if !r.Done {
		return nil, fmt.Errorf("broadcast: %s from %d stalled with %d/%d informed (stuck: %v)",
			algo.Name(), src, r.Informed, m.Nodes(), net.Stuck())
	}
	return r, nil
}

func needsAdaptive(p *Plan) bool {
	for _, s := range p.Sends {
		if s.Adaptive {
			return true
		}
	}
	return false
}
