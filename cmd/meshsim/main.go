// Command meshsim runs a single broadcast scenario on the simulated
// wormhole mesh or torus and reports latency and arrival-time
// statistics.
//
// Examples:
//
//	meshsim -mesh 8x8x8 -algo AB -length 100
//	meshsim -mesh 16x16x8 -algo RD -mode cv -reps 40
//	meshsim -mesh 8x8x8 -algo DB -mode mixed -rate 2.5
//	meshsim -mesh 8x8x8 -topo torus -algo AB          # dateline VCs
//	meshsim -mesh 64x64x32 -store lazy -algo RD       # paged state
//	meshsim -mesh 8x8x8 -mode cv -faults 8            # degraded study
//
// The -topo, -store and -faults flags mirror cmd/sweep's: torus
// topologies run with two dateline virtual channels per physical
// channel, "lazy" pages network state in on first contention (with
// implicit adjacency, so huge shapes need no up-front allocation), and
// -faults fails that many random undirected links before traffic
// starts (cv mode, reported as a coverage/drop study). Output is
// byte-identical across stores at a fixed seed.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro"
	"repro/internal/topology"
)

func main() {
	var (
		meshSpec = flag.String("mesh", "8x8x8", "mesh dimensions, e.g. 8x8x8 or 16x16")
		algoName = flag.String("algo", "AB", "broadcast algorithm: RD, EDN, DB or AB")
		mode     = flag.String("mode", "single", "single | cv | mixed")
		src      = flag.Int("src", -1, "source node for single mode (-1 = node 0)")
		length   = flag.Int("length", 100, "message length in flits")
		ts       = flag.Float64("ts", 1.5, "startup latency in µs")
		beta     = flag.Float64("beta", 0.003, "flit transfer time in µs")
		reps     = flag.Int("reps", 40, "replications / measured broadcasts (cv mode)")
		gap      = flag.Float64("gap", 5, "mean broadcast inter-arrival in µs (cv mode)")
		rate     = flag.Float64("rate", 1.0, "per-node message rate in msg/ms (mixed mode)")
		hotspot  = flag.Float64("hotspot", 0, "fraction of mixed-mode unicasts aimed at the center node (0 = uniform)")
		seed     = flag.Uint64("seed", 1, "random seed")
		topoKind = flag.String("topo", "mesh", "topology: mesh or torus (torus runs two dateline VCs)")
		storeN   = flag.String("store", "auto", "substrate memory model: auto, dense, or lazy")
		faults   = flag.Int("faults", 0, "fail this many random undirected links before traffic starts (cv mode only)")
	)
	flag.Parse()

	store, err := parseStore(*storeN)
	if err != nil {
		fatal(err)
	}
	m, err := buildTopo(*topoKind, *meshSpec, store)
	if err != nil {
		fatal(err)
	}
	algo, err := lookupAlgorithm(*algoName)
	if err != nil {
		fatal(err)
	}
	cfg := wormsim.DefaultConfig()
	cfg.Ts = *ts
	cfg.Beta = *beta
	cfg.Store = store
	if m.Wrap() {
		cfg.VCs = 2 // dateline pair: deadlock freedom on wraparound rings
	}
	if *faults > 0 && *mode != "cv" {
		fatal(fmt.Errorf("-faults needs -mode cv (the degraded study), got %q", *mode))
	}

	switch *mode {
	case "single":
		source := wormsim.NodeID(0)
		if *src >= 0 {
			source = wormsim.NodeID(*src)
		}
		r, err := wormsim.RunBroadcast(m, algo, source, cfg, *length)
		if err != nil {
			fatal(err)
		}
		var acc wormsim.Accumulator
		acc.AddAll(r.DestinationLatencies())
		fmt.Printf("%s broadcast on %s from node %d (L=%d flits, Ts=%g µs)\n",
			algo.Name(), m.Name(), source, *length, *ts)
		fmt.Printf("  steps:            %d\n", r.Plan.Steps)
		fmt.Printf("  messages:         %d\n", r.Plan.MessageCount())
		fmt.Printf("  latency:          %.3f µs\n", r.Latency())
		fmt.Printf("  mean arrival:     %.3f µs\n", acc.Mean())
		fmt.Printf("  arrival CV:       %.4f\n", acc.CV())
		fmt.Printf("  earliest/latest:  %.3f / %.3f µs\n", acc.Min(), acc.Max())
		fmt.Println()
		fmt.Print(wormsim.FormatBreakdown(algo.Name(), wormsim.StepBreakdown(m, r)))

	case "cv":
		if *faults > 0 {
			plan, err := wormsim.RandomLinkFaults(m, *seed, *faults, 0)
			if err != nil {
				fatal(err)
			}
			st, err := wormsim.DegradedStudy(m, algo, wormsim.DegradedConfig{
				Net:          cfg,
				Length:       *length,
				Broadcasts:   *reps,
				Interarrival: *gap,
				Seed:         *seed,
				Faults:       plan,
			})
			if err != nil {
				fatal(err)
			}
			cov := st.Coverage.Confidence95()
			lat := st.Latency.Confidence95()
			fmt.Printf("%s on %s: %d broadcasts, gap %g µs, L=%d flits, %d failed links\n",
				algo.Name(), m.Name(), *reps, *gap, *length, *faults)
			fmt.Printf("  coverage: %.4f ± %.4f (95%% CI)\n", cov.Mean, cov.HalfWide)
			fmt.Printf("  latency:  %.3f ± %.3f µs (95%% CI, reached destinations)\n", lat.Mean, lat.HalfWide)
			fmt.Printf("  dropped:  %d worms\n", st.Dropped)
			return
		}
		st, err := wormsim.ContendedCVStudy(m, algo, wormsim.ContendedConfig{
			Net:          cfg,
			Length:       *length,
			Broadcasts:   *reps,
			Interarrival: *gap,
			Seed:         *seed,
		})
		if err != nil {
			fatal(err)
		}
		lat := st.Latency.Confidence95()
		cv := st.CV.Confidence95()
		fmt.Printf("%s on %s: %d broadcasts, gap %g µs, L=%d flits\n",
			algo.Name(), m.Name(), *reps, *gap, *length)
		fmt.Printf("  latency: %.3f ± %.3f µs (95%% CI)\n", lat.Mean, lat.HalfWide)
		fmt.Printf("  CV:      %.4f ± %.4f (95%% CI)\n", cv.Mean, cv.HalfWide)

	case "mixed":
		mcfg := wormsim.MixedConfig{
			Rate:              *rate / 1000,
			BroadcastFraction: 0.10,
			Length:            *length,
			Algorithm:         algo,
			Seed:              *seed,
		}
		if *hotspot > 0 {
			mcfg.HotspotFraction = *hotspot
			mcfg.Hotspot = wormsim.NodeID(m.Nodes() / 2)
		}
		ncfg := cfg
		ncfg.Ports = algo.Ports()
		res, err := wormsim.RunMixedWith(m, ncfg, mcfg)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s on %s: mixed 90/10 traffic at %g msg/ms/node, L=%d flits\n",
			algo.Name(), m.Name(), *rate, *length)
		fmt.Printf("  mean latency:      %.3f µs (95%%CI ±%.3f)\n", res.MeanLatency, res.CI.HalfWide)
		fmt.Printf("  unicast latency:   %.3f µs over %d messages\n", res.Unicast.Mean(), res.Unicast.N())
		fmt.Printf("  broadcast latency: %.3f µs over %d messages\n", res.Broadcast.Mean(), res.Broadcast.N())
		fmt.Printf("  throughput:        %.4f msg/µs\n", res.Throughput)
		if res.Saturated {
			fmt.Printf("  SATURATED: the network could not sustain this load\n")
		}

	default:
		fatal(fmt.Errorf("unknown mode %q", *mode))
	}
}

// buildTopo constructs the requested topology, pairing the lazy
// store with implicit (computed-on-demand) adjacency so a huge shape
// costs nothing up front — the same resolution cmd/sweep's scenarios
// apply.
func buildTopo(kind, spec string, store wormsim.StoreMode) (*wormsim.Mesh, error) {
	parts := strings.Split(strings.ToLower(spec), "x")
	dims := make([]int, 0, len(parts))
	nodes := 1
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad mesh spec %q", spec)
		}
		dims = append(dims, v)
		nodes *= v
	}
	if err := topology.CheckDims(dims); err != nil {
		return nil, err
	}
	implicit := store.LazyFor(nodes)
	switch strings.ToLower(kind) {
	case "mesh":
		if implicit {
			return wormsim.NewMeshImplicit(dims...), nil
		}
		return wormsim.NewMesh(dims...), nil
	case "torus":
		if implicit {
			return wormsim.NewTorusImplicit(dims...), nil
		}
		return wormsim.NewTorus(dims...), nil
	}
	return nil, fmt.Errorf("unknown topology %q (want mesh or torus)", kind)
}

func parseStore(name string) (wormsim.StoreMode, error) {
	switch strings.ToLower(name) {
	case "", "auto":
		return wormsim.StoreAuto, nil
	case "dense":
		return wormsim.StoreDense, nil
	case "lazy":
		return wormsim.StoreLazy, nil
	}
	return wormsim.StoreAuto, fmt.Errorf("unknown store %q (want auto, dense or lazy)", name)
}

func lookupAlgorithm(name string) (wormsim.Algorithm, error) {
	for _, a := range wormsim.Algorithms() {
		if strings.EqualFold(a.Name(), name) {
			return a, nil
		}
	}
	return nil, fmt.Errorf("unknown algorithm %q (want RD, EDN, DB or AB)", name)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "meshsim:", err)
	os.Exit(1)
}
