// Package traffic generates the workloads of the paper's evaluation:
// single-source broadcasts over an idle network (§3.1–3.2) and the
// mixed open-loop workload of §3.3, in which every node generates
// messages with exponentially distributed inter-arrival times, 90%
// unicast to uniformly random destinations and 10% broadcast.
//
// Latency is estimated with the paper's batch-means procedure, but
// batches are formed over a window of *injected* messages (injection
// order), not the first completions: under heavy load the earliest
// completions are the quick uncongested unicasts, and sampling them
// would hide saturation entirely. Injection continues while the
// measured window drains so the background load stays in place.
package traffic

import (
	"fmt"
	"math"
	"math/bits"

	"repro/internal/broadcast"
	"repro/internal/network"
	"repro/internal/routing"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Unicast destination patterns of the mixed workload. Every non-
// uniform pattern gates its extra work (and any extra random draw)
// behind its own activation, so a uniform run consumes exactly the
// historical random stream and reproduces byte-identically.
const (
	// PatternUniform draws every unicast destination uniformly from
	// the other nodes — the paper's model and the default ("" means
	// the same).
	PatternUniform = "uniform"
	// PatternTranspose sends every unicast from coordinate
	// (a₀,…,aₖ₋₁) to its reversal (aₖ₋₁,…,a₀) — the classic matrix-
	// transpose permutation (on a 2D mesh: (x,y)→(y,x)). It needs a
	// palindromic shape (dims[i] == dims[k-1-i]); a diagonal node,
	// whose transpose is itself, falls back to one uniform draw.
	PatternTranspose = "transpose"
	// PatternBitReversal sends node i to the node whose index is i's
	// bit reversal in ⌈log₂ n⌉ bits — the FFT communication
	// permutation. Palindromic indices, and reversals landing outside
	// a non-power-of-two node count, fall back to one uniform draw.
	PatternBitReversal = "bit-reversal"
)

// MixedConfig parameterises the unicast+broadcast workload.
type MixedConfig struct {
	// Rate is the per-node message generation rate in messages/µs
	// (the paper's axis is messages/ms; divide by 1000).
	Rate float64
	// BroadcastFraction is the probability a generated message is a
	// broadcast (paper: 0.10).
	BroadcastFraction float64
	// Length is the message length in flits (paper: 32 for §3.3).
	Length int
	// Algorithm plans the broadcasts; may be nil when
	// BroadcastFraction is zero.
	Algorithm broadcast.Algorithm
	// Unicast routes the unicast background; nil means
	// dimension-order. The AB scenario passes the west-first
	// selector here so the whole system benefits from adaptivity,
	// matching the paper's attribution of AB's advantage.
	Unicast routing.Selector
	// Pattern selects the unicast destination distribution: "" or
	// PatternUniform (the default), PatternTranspose, or
	// PatternBitReversal. The deterministic patterns cannot combine
	// with HotspotFraction.
	Pattern string
	// HotspotFraction is the probability a unicast targets the
	// Hotspot node instead of a uniformly random destination — the
	// classic contended-memory-module pattern. Zero (the default)
	// keeps the paper's uniform destinations and draws no extra
	// random numbers, so existing seeds reproduce byte-identically.
	HotspotFraction float64
	// Hotspot is the hotspot destination node; only consulted when
	// HotspotFraction is positive. A hotspot-bound message generated
	// AT the hotspot falls back to a uniform destination.
	Hotspot topology.NodeID
	// Adaptive routes broadcast sends marked adaptive; nil means
	// dimension-order.
	Adaptive routing.Selector
	// Seed drives all randomness (sources, destinations, arrivals).
	Seed uint64
	// BatchSize and Batches configure the batch-means estimator;
	// Warmup batches are discarded (paper: 21 batches, first
	// discarded). The measured window is Batches×BatchSize messages
	// in injection order.
	BatchSize, Batches, Warmup int
	// MaxTime aborts a run whose measured window has not drained by
	// this simulated time; unfinished measured messages are floored
	// at their age, so a saturated point reports a diverging mean.
	// Zero means 5e6 µs.
	MaxTime sim.Time
	// MaxInjected bounds the total number of injected messages; a
	// run whose measured window is still in flight after this many
	// injections is saturated (the backlog grows without bound) and
	// is cut off rather than simulated forever. Zero means 10× the
	// measured window.
	MaxInjected int
}

// DefaultMaxInjected returns the injected-message cap the mixed-
// traffic drivers use when the caller sets none: 10× the measured
// window, dropping to 3× on meshes above 1024 nodes — a saturated RD
// point on 16×16×8 otherwise simulates millions of worms for no
// extra information. Shared by the scenario run loop and the legacy
// Fig. 3/4 driver so both cut saturated runs at the same place.
func DefaultMaxInjected(nodes, window int) int {
	if nodes > 1024 {
		return 3 * window
	}
	return 10 * window
}

// MixedResult reports a mixed-traffic run.
type MixedResult struct {
	// MeanLatency is the batch-means point estimate of message
	// latency in µs (unicast and broadcast samples combined;
	// a broadcast completes when its last destination receives).
	MeanLatency float64
	// CI is the 95% confidence interval behind MeanLatency.
	CI stats.Interval
	// Unicast and Broadcast break completed-message latency down by
	// class (measured window only).
	Unicast, Broadcast stats.Accumulator
	// Injected and Completed count all messages, measured or not.
	Injected, Completed int
	// Duration is the simulated time consumed.
	Duration sim.Time
	// Saturated reports that the run hit MaxTime with measured
	// messages still in flight — the network could not sustain the
	// offered load.
	Saturated bool
	// Throughput is completed messages per µs of simulated time.
	Throughput float64
}

// CIValid reports whether the confidence interval rests on at least
// two batches and has a finite width.
func (r *MixedResult) CIValid() bool {
	return r.CI.N >= 2 && r.CI.HalfWide >= 0 && !math.IsInf(r.CI.HalfWide, 0) && !math.IsNaN(r.CI.HalfWide)
}

// RunMixed executes the mixed workload on a pristine network over m with
// the paper's timing constants and returns the latency statistics.
func RunMixed(m *topology.Mesh, cfg MixedConfig) (*MixedResult, error) {
	ncfg := network.DefaultConfig()
	if cfg.Algorithm != nil {
		ncfg.Ports = cfg.Algorithm.Ports()
	}
	return RunMixedWith(m, ncfg, cfg)
}

// RunMixedWith is RunMixed with a caller-supplied network
// configuration, used by the sensitivity ablations.
func RunMixedWith(m *topology.Mesh, ncfg network.Config, cfg MixedConfig) (*MixedResult, error) {
	if cfg.Rate <= 0 {
		return nil, fmt.Errorf("traffic: non-positive rate %v", cfg.Rate)
	}
	if cfg.Length <= 0 {
		return nil, fmt.Errorf("traffic: non-positive length %d", cfg.Length)
	}
	if cfg.BroadcastFraction < 0 || cfg.BroadcastFraction > 1 {
		return nil, fmt.Errorf("traffic: broadcast fraction %v outside [0,1]", cfg.BroadcastFraction)
	}
	if cfg.BroadcastFraction > 0 && cfg.Algorithm == nil {
		return nil, fmt.Errorf("traffic: broadcast fraction %v with no algorithm", cfg.BroadcastFraction)
	}
	if cfg.HotspotFraction < 0 || cfg.HotspotFraction > 1 {
		return nil, fmt.Errorf("traffic: hotspot fraction %v outside [0,1]", cfg.HotspotFraction)
	}
	if cfg.HotspotFraction > 0 && (cfg.Hotspot < 0 || int(cfg.Hotspot) >= m.Nodes()) {
		return nil, fmt.Errorf("traffic: hotspot node %d outside [0,%d)", cfg.Hotspot, m.Nodes())
	}
	switch cfg.Pattern {
	case "", PatternUniform:
	case PatternTranspose:
		for i, j := 0, m.NDims()-1; i < j; i, j = i+1, j-1 {
			if m.Dim(i) != m.Dim(j) {
				return nil, fmt.Errorf("traffic: the transpose pattern needs a palindromic shape, got %s", m.Name())
			}
		}
		fallthrough
	case PatternBitReversal:
		if cfg.HotspotFraction > 0 {
			return nil, fmt.Errorf("traffic: pattern %q cannot combine with a hotspot fraction", cfg.Pattern)
		}
	default:
		return nil, fmt.Errorf("traffic: unknown pattern %q (want %s, %s or %s)",
			cfg.Pattern, PatternUniform, PatternTranspose, PatternBitReversal)
	}
	if m.Nodes() < 2 {
		return nil, fmt.Errorf("traffic: mixed workload needs at least two nodes")
	}
	net, err := network.Acquire(m, ncfg)
	if err != nil {
		return nil, err
	}
	defer net.Release()
	return runMixedOn(net.Sim(), net, m, cfg)
}

func runMixedOn(s *sim.Simulator, net *network.Network, m *topology.Mesh, cfg MixedConfig) (*MixedResult, error) {
	batchSize, batches, warmup := cfg.BatchSize, cfg.Batches, cfg.Warmup
	if batchSize <= 0 {
		batchSize = 100
	}
	if batches <= 0 {
		batches = 21
		warmup = 1
	}
	maxTime := cfg.MaxTime
	if maxTime <= 0 {
		maxTime = 5e6
	}
	window := batches * batchSize
	maxInjected := cfg.MaxInjected
	if maxInjected <= 0 {
		// Route the fallback through the shared default: the scenario
		// run loop already resolves it this way, and a hard-coded
		// 10×window here silently overrode the 3×window large-mesh cap
		// for every legacy RunMixed caller (the Fig. 4 driver on
		// 16×16×8 simulated over three times the intended backlog at
		// saturated points).
		maxInjected = DefaultMaxInjected(m.Nodes(), window)
	}

	res := &MixedResult{}
	rng := sim.NewRNG(cfg.Seed, 11)
	n := m.Nodes()

	// patDst maps a source to its deterministic pattern destination,
	// or to itself when the permutation has no valid image (a diagonal
	// node under transpose, an out-of-range reversal on a non-power-
	// of-two network) — the caller treats self as "fall back to one
	// uniform draw". nil for the uniform and hotspot patterns, whose
	// random streams stay exactly historical.
	var patDst func(topology.NodeID) topology.NodeID
	switch cfg.Pattern {
	case PatternTranspose:
		nd := m.NDims()
		coords := make([]int, nd)
		rev := make([]int, nd)
		patDst = func(src topology.NodeID) topology.NodeID {
			m.CoordInto(src, coords)
			for i, c := range coords {
				rev[nd-1-i] = c
			}
			return m.ID(rev...)
		}
	case PatternBitReversal:
		b := bits.Len(uint(n - 1))
		patDst = func(src topology.NodeID) topology.NodeID {
			r := topology.NodeID(bits.Reverse64(uint64(src)) >> (64 - b))
			if int(r) >= n {
				return src
			}
			return r
		}
	}

	// Measured window state: latencies indexed by injection order;
	// negative means still in flight.
	latencies := make([]sim.Time, window)
	injectTimes := make([]sim.Time, window)
	for i := range latencies {
		latencies[i] = -1
	}
	measuredLeft := window
	stopInjecting := false

	complete := func(class *stats.Accumulator, idx int, injectedAt sim.Time) {
		lat := s.Now() - injectedAt
		res.Completed++
		if idx >= 0 {
			latencies[idx] = lat
			class.Add(lat)
			measuredLeft--
			if measuredLeft == 0 {
				stopInjecting = true
			}
		}
	}

	var injectErr error
	var schedule func(node topology.NodeID, rng *sim.RNG)
	schedule = func(node topology.NodeID, rng *sim.RNG) {
		s.After(rng.Exp(1/cfg.Rate), func() {
			if stopInjecting || injectErr != nil {
				return
			}
			if s.Now() > maxTime || res.Injected >= maxInjected {
				res.Saturated = true
				stopInjecting = true
				return
			}
			at := s.Now()
			idx := -1
			if res.Injected < window {
				idx = res.Injected
				injectTimes[idx] = at
			}
			res.Injected++
			if rng.Float64() < cfg.BroadcastFraction {
				plan, err := broadcast.PlanCached(m, cfg.Algorithm, node)
				if err != nil {
					injectErr = err
					return
				}
				_, err = broadcast.Execute(net, plan, broadcast.Options{
					Start:    at,
					Length:   cfg.Length,
					Adaptive: cfg.Adaptive,
					Tag:      "mixed",
					OnComplete: func(*broadcast.Result) {
						complete(&res.Broadcast, idx, at)
					},
				})
				if err != nil {
					injectErr = err
					return
				}
			} else {
				dst := topology.NodeID(-1)
				// The hotspot draw happens only under an active hotspot
				// pattern, so uniform-pattern runs consume exactly the
				// historical random stream.
				if cfg.HotspotFraction > 0 && rng.Float64() < cfg.HotspotFraction && node != cfg.Hotspot {
					dst = cfg.Hotspot
				}
				if dst < 0 && patDst != nil {
					// Deterministic permutation patterns: no draw at all
					// unless the node maps to itself.
					if d := patDst(node); d != node {
						dst = d
					}
				}
				if dst < 0 {
					dst = topology.NodeID(rng.Intn(n - 1))
					if dst >= node {
						dst++
					}
				}
				t := &network.Transfer{
					Source:    node,
					Waypoints: []topology.NodeID{dst},
					Length:    cfg.Length,
					Selector:  cfg.Unicast,
					Tag:       "unicast",
					OnDeliver: func(_ topology.NodeID, _ sim.Time) {
						complete(&res.Unicast, idx, at)
					},
				}
				if err := net.Send(at, t); err != nil {
					injectErr = err
					return
				}
			}
			schedule(node, rng)
		})
	}

	for node := 0; node < n; node++ {
		schedule(topology.NodeID(node), rng.Split())
	}

	s.Run()
	if injectErr != nil {
		return nil, injectErr
	}
	if net.InFlight() > 0 {
		return nil, fmt.Errorf("traffic: simulated deadlock with %d worms in flight: %v",
			net.InFlight(), net.Stuck())
	}

	res.Duration = s.Now()

	// Feed the measured window into the batch-means estimator in
	// injection order. Messages the saturated run never finished are
	// floored at their age when injection stopped, so the estimate
	// diverges rather than silently dropping the slowest messages.
	collector := stats.NewBatchMeans(batchSize, batches, warmup)
	injectedWindow := window
	if res.Injected < window {
		injectedWindow = res.Injected
	}
	fed := 0
	for i := 0; i < injectedWindow; i++ {
		lat := latencies[i]
		if lat < 0 {
			if !res.Saturated {
				return nil, fmt.Errorf("traffic: measured message %d never completed in a non-saturated run", i)
			}
			lat = res.Duration - injectTimes[i]
		}
		collector.Add(lat)
		fed++
	}
	if fed < window && !res.Saturated {
		return nil, fmt.Errorf("traffic: only %d/%d measured messages injected", fed, window)
	}
	ci := collector.Estimate()
	res.MeanLatency = ci.Mean
	res.CI = ci
	if res.Duration > 0 {
		res.Throughput = float64(res.Completed) / res.Duration
	}
	return res, nil
}
