// Command paperbench regenerates every table and figure of the
// paper's evaluation section and prints them in the paper's layout.
//
//	paperbench            # full runs (paper-sized replication counts)
//	paperbench -quick     # reduced replication for a fast smoke run
//	paperbench -only fig1 # one artifact: fig1, fig1b, fig2, tables,
//	                      # fig3, fig4, fig2-torus, faults
//	paperbench -procs 8   # fan replications out over 8 workers
//
// Every artifact is a registered scenario (internal/scenario) looked
// up by name; this command only sequences them in the paper's order
// and renders the results.
//
// The -cpuprofile and -memprofile flags write standard pprof
// profiles of the whole run, exactly as `go test` would. Speed is
// measured elsewhere: layerbench end to end and layer by layer, and
// `go test -bench` per package (see EXPERIMENTS.md).
//
// Replications run in parallel on -procs workers (default: all
// cores). Output is bit-identical for any -procs value and a fixed
// -seed: per-replication randomness is derived from (seed,
// replication), never from scheduling. Live progress is reported on
// stderr; figures and tables go to stdout, so redirecting stdout
// captures exactly the artifacts.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/export"
	"repro/internal/prof"
	"repro/internal/scenario"
)

func main() {
	var (
		quick    = flag.Bool("quick", false, "reduced replication counts for a fast run")
		only     = flag.String("only", "", "comma-separated subset: "+strings.Join(artifacts, ", "))
		seed     = flag.Uint64("seed", 2005, "random seed")
		csvDir   = flag.String("csv", "", "also write each artifact as CSV into this directory")
		batchesF = flag.Int("batches", 0, "override batch count for the traffic figures")
		batchSzF = flag.Int("batchsize", 0, "override batch size for the traffic figures")
		procs    = flag.Int("procs", 0, "max parallel replications (0 = all cores); output is identical for any value")
		repsF    = flag.Int("reps", 0, "override replication count for the replicated figures (0 = default)")
		progress = flag.Bool("progress", true, "report live progress on stderr")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memProf  = flag.String("memprofile", "", "write an allocation profile to this file on exit")
	)
	flag.Parse()
	want, err := parseOnly(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(2)
	}

	stopProf, err := prof.Start(*cpuProf, *memProf)
	if err != nil {
		fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
		os.Exit(1)
	}
	defer stopProf()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	writeCSV := func(name string, write func(f *os.File) error) {
		if *csvDir == "" {
			return
		}
		if err := os.MkdirAll(*csvDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: %v\n", err)
			os.Exit(1)
		}
		f, err := os.Create(filepath.Join(*csvDir, name))
		if err == nil {
			err = write(f)
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "paperbench: writing %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	selected := func(k string) bool { return len(want) == 0 || want[k] }

	reps := 40
	batches, batchSize := 21, 100
	if *quick {
		reps = 8
		batches, batchSize = 6, 40
	}
	if *repsF > 0 {
		reps = *repsF
	}
	if *batchesF > 0 {
		batches = *batchesF
	}
	if *batchSzF > 0 {
		batchSize = *batchSzF
	}

	// Live progress is a carriage-return-overwritten stderr line,
	// erased when the artifact completes so only stdout output
	// remains. It needs a terminal: into a pipe or log file the
	// control characters are garbage, so it is disabled there.
	progressOn := *progress && stderrIsTerminal()
	reporter := func(id string) func(done, total int) {
		if !progressOn {
			return nil
		}
		return func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%s: %d/%d", id, done, total)
			if done == total {
				fmt.Fprint(os.Stderr, "\r\033[K")
			}
		}
	}
	// clearProgress erases a partially drawn progress line so error
	// messages start on a clean line (a failed scenario never reaches
	// done == total).
	clearProgress := func() {
		if progressOn {
			fmt.Fprint(os.Stderr, "\r\033[K")
		}
	}

	// run executes the named registry scenario with the shared CLI
	// overrides plus any extra options, exiting on failure.
	run := func(name, label string, extra ...scenario.Option) *scenario.Result {
		opts := append([]scenario.Option{
			scenario.WithSeed(*seed),
			scenario.WithProcs(*procs),
			scenario.WithProgress(reporter(label)),
		}, extra...)
		spec, err := scenario.Build(name, opts...)
		if err == nil {
			var res *scenario.Result
			res, err = scenario.Run(ctx, spec)
			if err == nil {
				return res
			}
		}
		clearProgress()
		fmt.Fprintf(os.Stderr, "paperbench: %s failed: %v\n", label, err)
		os.Exit(1)
		return nil
	}
	// timed prints one artifact's regeneration time on stderr: stdout
	// must stay byte-identical across runs and -procs values for the
	// determinism diff.
	timed := func(label string, start time.Time, notes ...string) {
		suffix := ""
		if len(notes) > 0 {
			suffix = ", " + strings.Join(notes, ", ")
		}
		fmt.Fprintf(os.Stderr, "(%s regenerated in %v%s)\n", label, time.Since(start).Round(time.Millisecond), suffix)
	}

	if selected("fig1") {
		start := time.Now()
		res := run("fig1", "fig1", scenario.WithReps(reps))
		fmt.Println(res.Figure)
		timed("fig1", start)
		writeCSV("fig1.csv", func(f *os.File) error { return export.FigureCSV(f, res.Figure) })
	}
	if selected("fig1b") {
		start := time.Now()
		res := run("fig1b", "fig1b", scenario.WithReps(reps))
		fmt.Println(res.Figure)
		timed("fig1b", start)
		writeCSV("fig1b.csv", func(f *os.File) error { return export.FigureCSV(f, res.Figure) })
	}
	// Fig. 2 and Tables 1–2 are projections of the same (algorithm,
	// mesh) study grid — the scenario computes the grid once and its
	// result carries all three artifacts, so any combination of
	// selections costs one run.
	if selected("fig2") || selected("tables") {
		label := "fig2+tables"
		switch {
		case !selected("tables"):
			label = "fig2"
		case !selected("fig2"):
			label = "tables"
		}
		start := time.Now()
		res := run("fig2", label, scenario.WithReps(reps))
		elapsed := time.Since(start)
		if selected("fig2") {
			fmt.Println(res.Figure)
		}
		if selected("tables") {
			fmt.Println(res.Table1.Format())
			fmt.Println(res.Table2.Format())
		}
		if label == "fig2+tables" {
			fmt.Fprintf(os.Stderr, "(fig2+tables regenerated in %v, shared study grid)\n", elapsed.Round(time.Millisecond))
		} else {
			timed(label, start)
		}
		if selected("fig2") {
			writeCSV("fig2.csv", func(f *os.File) error { return export.FigureCSV(f, res.Figure) })
		}
		if selected("tables") {
			writeCSV("table1.csv", func(f *os.File) error { return export.TableCSV(f, res.Table1) })
			writeCSV("table2.csv", func(f *os.File) error { return export.TableCSV(f, res.Table2) })
		}
	}
	for _, name := range []string{"fig3", "fig4"} {
		if !selected(name) {
			continue
		}
		start := time.Now()
		res := run(name, name, scenario.WithBatches(batches, batchSize, 1))
		fmt.Println(res.Figure)
		timed(name, start)
		writeCSV(name+".csv", func(f *os.File) error { return export.FigureCSV(f, res.Figure) })
	}
	// The torus experiment family (beyond the paper): the Fig. 2 study
	// on wraparound networks with the full algorithm set over dateline
	// virtual channels.
	if selected("fig2-torus") {
		start := time.Now()
		res := run("fig2-torus", "fig2-torus", scenario.WithReps(reps))
		fmt.Println(res.Figure)
		timed("fig2-torus", start)
		writeCSV("fig2-torus.csv", func(f *os.File) error { return export.FigureCSV(f, res.Figure) })
	}
	// The fault-injection family (beyond the paper): delivery coverage
	// as links fail, for all four algorithms on mesh and torus, and
	// the adaptive-substrate comparison under the same fault plans.
	if selected("faults") {
		for _, name := range []string{"fig2-faults", "faults-adaptive"} {
			start := time.Now()
			res := run(name, name, scenario.WithReps(reps))
			fmt.Println(res.Figure)
			timed(name, start)
			writeCSV(name+".csv", func(f *os.File) error { return export.FigureCSV(f, res.Figure) })
		}
	}
}

// artifacts are the names -only accepts, in print order.
var artifacts = []string{"fig1", "fig1b", "fig2", "tables", "fig3", "fig4", "fig2-torus", "faults"}

// parseOnly turns -only's comma-separated names (any case) into the
// selection set, empty for an empty flag (everything). An unknown or
// empty name is an error listing the valid ones.
func parseOnly(only string) (map[string]bool, error) {
	want := map[string]bool{}
	if only == "" {
		return want, nil
	}
	for _, k := range strings.Split(only, ",") {
		k = strings.ToLower(strings.TrimSpace(k))
		if !slices.Contains(artifacts, k) {
			return nil, fmt.Errorf("-only: unknown artifact %q (valid: %s)", k, strings.Join(artifacts, ", "))
		}
		want[k] = true
	}
	return want, nil
}

// stderrIsTerminal reports whether stderr is attached to a terminal
// (character device), the only place the \r progress line renders
// usefully.
func stderrIsTerminal() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}
