package metrics

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/topology"
)

// ContendedConfig parameterises the node-level (CV) study. The
// paper's §3.2 measures arrival-time variation over at least 40
// experiments with randomly chosen sources; broadcasts in flight
// overlap, so worms contend for channels, which is precisely what
// spreads arrival times in step-hungry algorithms (RD, EDN) far more
// than in the coded-path algorithms (DB, AB).
type ContendedConfig struct {
	// Net is the network timing configuration (ports are overridden
	// per algorithm).
	Net network.Config
	// Length is the message length in flits.
	Length int
	// Broadcasts is the number of measured broadcasts (paper: ≥40).
	Broadcasts int
	// Interarrival is the mean time between broadcast initiations in
	// µs (exponentially distributed). Zero means one broadcast
	// duration apart on average — light but overlapping load.
	Interarrival float64
	// Seed drives source selection and arrival times.
	Seed uint64
}

// ContendedCVStudy injects Broadcasts broadcasts from uniformly random
// sources with exponential inter-arrival times into one shared
// network, and aggregates each broadcast's destination arrival-time
// statistics.
//
// Unlike SingleSourceStudy, one study is a single discrete-event
// simulation whose broadcasts interact through channel contention, so
// it cannot be split across workers; callers parallelise at the next
// level up, running whole (algorithm, mesh) studies as independent
// runner jobs (see runContended in internal/scenario, the fig2 runner).
func ContendedCVStudy(m *topology.Mesh, algo broadcast.Algorithm, cfg ContendedConfig) (*SingleSourceStats, error) {
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
	var adaptive routing.Selector
	if algo.Name() == "AB" {
		adaptive = routing.WestFirstFor(m)
	}

	interarrival := cfg.Interarrival
	if interarrival <= 0 {
		// Default: mean gap of one uncontended broadcast duration,
		// estimated from a dry run.
		r, err := broadcast.RunSingle(m, algo, 0, ncfg, cfg.Length)
		if err != nil {
			return nil, err
		}
		interarrival = r.Latency()
	}

	rng := sim.NewRNG(cfg.Seed, 31)
	out := &SingleSourceStats{Algorithm: algo.Name(), Mesh: m.Name(), Nodes: m.Nodes()}

	at := sim.Time(0)
	results := make([]*broadcast.Result, 0, cfg.Broadcasts)
	for i := 0; i < cfg.Broadcasts; i++ {
		at += rng.Exp(interarrival)
		src := topology.NodeID(rng.Intn(m.Nodes()))
		plan, err := broadcast.PlanCached(m, algo, src)
		if err != nil {
			return nil, err
		}
		r, err := broadcast.Execute(net, plan, broadcast.Options{
			Start:    at,
			Length:   cfg.Length,
			Adaptive: adaptive,
			Tag:      fmt.Sprintf("cv%d", i),
		})
		if err != nil {
			return nil, err
		}
		results = append(results, r)
		if i == 0 {
			out.Steps = plan.Steps
			out.Messages = plan.MessageCount()
		}
	}

	s.Run()
	out.Events = s.Fired()
	out.Records = s.WavefrontStats().Events
	out.SimulatedTime = s.Now()
	for _, r := range results {
		if !r.Done {
			return nil, fmt.Errorf("metrics: %s broadcast stalled with %d/%d informed",
				algo.Name(), r.Informed, m.Nodes())
		}
		out.Latency.Add(r.Latency())
		out.CV.Add(r.DestinationCV())
	}
	return out, nil
}
