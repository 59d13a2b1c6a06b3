package metrics

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// DegradedConfig parameterises the graceful-degradation study: the
// contended workload of ContendedCVStudy run on a network with a
// fault plan applied. The zero Faults plan is the pristine twin — the
// same traffic on the same seeds with nothing failed — which is what
// latency inflation is measured against.
type DegradedConfig struct {
	// Net is the network timing configuration (ports are overridden
	// per algorithm). Net.DeadWait is the dead-ended worm's grace.
	Net network.Config
	// Length is the message length in flits.
	Length int
	// Broadcasts is the number of measured broadcasts.
	Broadcasts int
	// Interarrival is the mean time between broadcast initiations in
	// µs (exponentially distributed). Zero estimates one uncontended
	// broadcast duration, as in ContendedCVStudy.
	Interarrival float64
	// Seed drives source selection and arrival times. The same seed
	// with and without Faults yields the identical traffic schedule,
	// so faulted and pristine runs are paired twins.
	Seed uint64
	// Faults is applied to the shared network before traffic starts;
	// nil or empty runs pristine.
	Faults *fault.Plan
	// Adaptive, honoured when AdaptiveSet is true, overrides the
	// study's routing substrate for adaptive sends (nil = plain
	// dimension-order). When unset the study uses the algorithm's
	// paper default (west-first under AB).
	Adaptive    routing.Selector
	AdaptiveSet bool
	// Plans, if set, shares broadcast plans among one run's studies (in-module callers only).
	Plans *broadcast.Memo
}

// DegradationStats aggregates a degraded study's per-broadcast
// outcomes. Unlike SingleSourceStats it never assumes completion:
// every broadcast contributes a coverage sample, and only broadcasts
// that reached at least one destination contribute latency/CV
// samples.
type DegradationStats struct {
	Algorithm string
	Mesh      string
	Nodes     int
	// Coverage accumulates per-broadcast delivery coverage: reached
	// destinations / (Nodes-1). Exactly 1 everywhere on a pristine run.
	Coverage stats.Accumulator
	// Latency accumulates each broadcast's mean arrival latency over
	// the destinations it reached.
	Latency stats.Accumulator
	// CV accumulates each broadcast's arrival-time coefficient of
	// variation over the destinations it reached.
	CV stats.Accumulator
	// Dropped counts worms the network aborted on dead resources.
	Dropped uint64
	// Events, Records and SimulatedTime describe the run's calendar.
	Events        uint64
	Records       uint64
	SimulatedTime sim.Time
}

// LatencyInflation returns the ratio of this study's mean reached-
// destination latency to the pristine twin's — 1.0 means faults cost
// nothing, 1.3 means surviving deliveries arrive 30% later. It
// returns 0 when the twin recorded no deliveries.
func (d *DegradationStats) LatencyInflation(pristine *DegradationStats) float64 {
	if pristine.Latency.Mean() == 0 {
		return 0
	}
	return d.Latency.Mean() / pristine.Latency.Mean()
}

// DegradedStudy injects Broadcasts broadcasts from uniformly random
// sources into one shared network degraded by cfg.Faults, and
// aggregates per-broadcast coverage, reached-destination latency and
// CV, and the network's drop count. Traffic is scheduled exactly as
// in ContendedCVStudy — same seed, same sources, same arrival times —
// so a faulted study and its pristine twin differ only in what the
// degraded network could deliver.
//
// The run always terminates: a worm on a degraded network either
// drains, or drops after its DeadWait grace, so the calendar empties
// without requiring completion the way ContendedCVStudy does.
func DegradedStudy(m *topology.Mesh, algo broadcast.Algorithm, cfg DegradedConfig) (*DegradationStats, error) {
	if cfg.Broadcasts <= 0 {
		return nil, fmt.Errorf("metrics: non-positive broadcast count %d", cfg.Broadcasts)
	}
	if cfg.Length <= 0 {
		return nil, fmt.Errorf("metrics: non-positive length %d", cfg.Length)
	}
	ncfg := cfg.Net
	ncfg.Ports = algo.Ports()
	net, err := network.Acquire(m, ncfg)
	if err != nil {
		return nil, err
	}
	defer net.Release()
	s := net.Sim()
	if err := cfg.Faults.Apply(net); err != nil {
		return nil, err
	}
	adaptive := cfg.Adaptive
	if !cfg.AdaptiveSet && algo.Name() == "AB" {
		adaptive = routing.WestFirstFor(m)
	}

	interarrival := cfg.Interarrival
	if interarrival <= 0 {
		// Default as in ContendedCVStudy: one uncontended (pristine)
		// broadcast duration, estimated from a dry run.
		r, err := broadcast.RunSingle(m, algo, 0, ncfg, cfg.Length)
		if err != nil {
			return nil, err
		}
		interarrival = r.Latency()
	}

	rng := sim.NewRNG(cfg.Seed, 31)
	out := &DegradationStats{Algorithm: algo.Name(), Mesh: m.Name(), Nodes: m.Nodes()}

	at := sim.Time(0)
	results := make([]*broadcast.Result, 0, cfg.Broadcasts)
	for i := 0; i < cfg.Broadcasts; i++ {
		at += rng.Exp(interarrival)
		src := topology.NodeID(rng.Intn(m.Nodes()))
		plan, err := cfg.Plans.Plan(m, algo, src)
		if err != nil {
			return nil, err
		}
		r, err := broadcast.Execute(net, plan, broadcast.Options{
			Start:    at,
			Length:   cfg.Length,
			Adaptive: adaptive,
			Tag:      fmt.Sprintf("deg%d", i),
		})
		if err != nil {
			return nil, err
		}
		results = append(results, r)
	}

	s.Run()
	out.Events = s.Fired()
	out.Records = s.WavefrontStats().Events
	out.SimulatedTime = s.Now()
	out.Dropped = net.Dropped()
	dests := float64(m.Nodes() - 1)
	for _, r := range results {
		// DestinationCount == len(DestinationLatencies()) — arrivals
		// minus the source — and the accessors reproduce MeanOf/CVOf's
		// exact accumulation on retained results, so this loop's output
		// is unchanged while streaming results need no arrival arrays.
		covered := r.DestinationCount()
		out.Coverage.Add(float64(covered) / dests)
		if covered > 0 {
			out.Latency.Add(r.DestinationMean())
			out.CV.Add(r.DestinationCV())
		}
	}
	return out, nil
}
