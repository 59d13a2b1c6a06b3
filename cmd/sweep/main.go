// Command sweep runs any registered scenario by name, writing tidy
// CSV to stdout or a file for downstream plotting.
//
//	sweep -what list                          # available scenarios
//	sweep -what fig1 > fig1.csv
//	sweep -what ablation-length -mesh 8x8x8 -o length.csv
//	sweep -what fig2-torus -seed 7
//	sweep -what fig2-faults                   # coverage vs failed links
//	sweep -what fig2 -faults 8                # Fig. 2 with 8 dead links
//
// The -faults flag fails that many random undirected links (both
// directions) in every cell of a contended scenario before traffic
// starts; the fault-axis scenarios (fig2-faults, faults-adaptive,
// faults-transient) sweep the count instead and ignore the flag.
//
// The -store flag forces the substrate memory model (dense up-front
// arrays or the paged lazy store); empty keeps the scenario's default,
// which is dense below 2^16 nodes and lazy at or above. Output is
// byte-identical either way.
//
// The -cpuprofile and -memprofile flags write standard pprof
// profiles of the whole run, exactly as `go test` would:
//
//	sweep -what fig2 -cpuprofile cpu.out
//	go tool pprof -top cpu.out
//
// The scenario names come from the process-wide registry
// (internal/scenario); registering a new scenario makes it runnable
// here with no changes to this command.
//
// Replications run in parallel on -procs workers (default: all
// cores); output is bit-identical for any -procs value at a fixed
// -seed. Interrupting the run (Ctrl-C) stops dispatching new
// simulations and exits cleanly.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"repro/internal/export"
	"repro/internal/prof"
	"repro/internal/scenario"
)

func main() {
	var (
		what     = flag.String("what", "fig1", "which scenario to run, or 'list' for all names")
		meshSpec = flag.String("mesh", "", "topology override, e.g. 8x8x8 (collapses size sweeps to one shape)")
		reps     = flag.Int("reps", 0, "replication override (0 = scenario default)")
		seed     = flag.Uint64("seed", 2005, "random seed")
		out      = flag.String("o", "", "output file (default stdout)")
		procs    = flag.Int("procs", 0, "max parallel replications (0 = all cores); output is identical for any value")
		faults   = flag.Int("faults", 0, "fail this many random undirected links in every cell of a contended scenario (0 = scenario default)")
		store    = flag.String("store", "", "substrate memory model: auto, dense, or lazy (empty = scenario default)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fatal(err)
	}
	defer stopProf()

	name := strings.ToLower(*what)
	if name == "list" {
		for _, line := range scenario.Summaries() {
			fmt.Println(line)
		}
		return
	}

	opts := []scenario.Option{
		scenario.WithReps(*reps),
		scenario.WithSeed(*seed),
		scenario.WithProcs(*procs),
		scenario.WithFaults(*faults),
		scenario.WithStore(*store),
	}
	if *meshSpec != "" {
		dims, err := parseDims(*meshSpec)
		if err != nil {
			fatal(err)
		}
		opts = append(opts, scenario.WithMesh(dims...))
	}
	spec, err := scenario.Build(name, opts...)
	if err != nil {
		fatal(fmt.Errorf("%w\nrun 'sweep -what list' for summaries", err))
	}

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				fatal(err)
			}
		}()
		w = f
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if _, err := scenario.RunTo(ctx, spec, export.NewCSVSink(w)); err != nil {
		fatal(err)
	}
}

func parseDims(spec string) ([]int, error) {
	parts := strings.Split(strings.ToLower(spec), "x")
	dims := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("bad mesh spec %q", spec)
		}
		dims = append(dims, v)
	}
	return dims, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "sweep:", err)
	os.Exit(1)
}
