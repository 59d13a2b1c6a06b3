// Package metrics turns raw broadcast results into the quantities the
// paper reports: network-level broadcast latency, the node-level
// coefficient of variation of arrival times, and the percentage
// improvement tables. Replicated single-source studies average over
// uniformly random sources, as the paper's experiments do ("different
// source nodes have been chosen randomly … at least 40 experiments").
//
// Replications are independent simulations, so the study drivers fan
// them out over a runner.Pool. Each replication draws its source from
// sim.Substream(seed, rep) — a pure function of the replication index
// — and results are aggregated in replication order, so a study's
// output is bit-identical for any worker count.
package metrics

import (
	"fmt"

	"repro/internal/broadcast"
	"repro/internal/network"
	"repro/internal/runner"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// SingleSourceStats aggregates replicated single-source broadcasts of
// one algorithm on one mesh.
type SingleSourceStats struct {
	Algorithm string
	Mesh      string
	Nodes     int
	// Latency aggregates network-level broadcast latency (µs).
	Latency stats.Accumulator
	// CV aggregates the per-replication coefficient of variation of
	// destination arrival times.
	CV stats.Accumulator
	// Steps is the algorithm's message-passing step count on the mesh.
	Steps int
	// Messages is the worms injected per broadcast.
	Messages int
	// Events counts the discrete events the study's simulation fired
	// (contended studies only — replicated single-source studies run
	// many independent simulations). It is the numerator of the
	// events/sec kernel-throughput metric the perf benchmarks track.
	Events uint64
	// Records counts the calendar records the study's drain carried
	// (contended studies only): Events less the actions a record folds
	// into itself. It is the calendar's share of the work.
	Records uint64
	// SimulatedTime is the simulated clock at the end of the study
	// (contended studies only).
	SimulatedTime sim.Time
}

// SingleSourceStudy runs reps single-source broadcasts from uniformly
// random sources on an idle network and aggregates latency and CV. It
// uses one worker per available core; use SingleSourceStudyOn to
// bound or serialise execution. Output depends only on the arguments,
// never on the worker count.
func SingleSourceStudy(m *topology.Mesh, algo broadcast.Algorithm, cfg network.Config, length, reps int, seed uint64) (*SingleSourceStats, error) {
	return SingleSourceStudyOn(runner.New(0), m, algo, cfg, length, reps, seed)
}

// singleRep is the per-replication sample of a single-source study.
type singleRep struct {
	latency, cv     float64
	steps, messages int
}

// SingleSourceStudyOn is SingleSourceStudy on the caller's pool:
// replication i draws its source from sim.Substream(seed, i) and runs
// as an independent simulation on one of the pool's workers; samples
// are folded into the accumulators in replication order.
func SingleSourceStudyOn(p *runner.Pool, m *topology.Mesh, algo broadcast.Algorithm, cfg network.Config, length, reps int, seed uint64) (*SingleSourceStats, error) {
	if reps <= 0 {
		return nil, fmt.Errorf("metrics: non-positive replication count %d", reps)
	}
	samples, err := runner.Map(p, reps, func(i int) (singleRep, error) {
		src := topology.NodeID(sim.Substream(seed, uint64(i)).Intn(m.Nodes()))
		r, err := broadcast.RunSingle(m, algo, src, cfg, length)
		if err != nil {
			return singleRep{}, err
		}
		return singleRep{
			latency:  r.Latency(),
			cv:       r.DestinationCV(),
			steps:    r.Plan.Steps,
			messages: r.Plan.MessageCount(),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	out := &SingleSourceStats{Algorithm: algo.Name(), Mesh: m.Name(), Nodes: m.Nodes()}
	for i, s := range samples {
		out.Latency.Add(s.latency)
		out.CV.Add(s.cv)
		if i == 0 {
			out.Steps = s.steps
			out.Messages = s.messages
		}
	}
	return out, nil
}

// ImprovementRow is one cell group of the paper's Tables 1 and 2: a
// baseline algorithm's CV and the percentage improvement the proposed
// algorithm achieves over it.
type ImprovementRow struct {
	Baseline    string
	BaselineCV  float64
	ProposedCV  float64
	Improvement float64 // percent, 100·(baseline − proposed)/proposed
}

// Improvements computes the paper's improvement metric of proposed
// over each baseline.
func Improvements(proposed *SingleSourceStats, baselines ...*SingleSourceStats) []ImprovementRow {
	rows := make([]ImprovementRow, 0, len(baselines))
	for _, b := range baselines {
		rows = append(rows, ImprovementRow{
			Baseline:    b.Algorithm,
			BaselineCV:  b.CV.Mean(),
			ProposedCV:  proposed.CV.Mean(),
			Improvement: stats.Improvement(proposed.CV.Mean(), b.CV.Mean()),
		})
	}
	return rows
}
