// Command layerbench measures the broadcast simulator end to end and
// layer by layer. Each invocation runs one workload in its own process
// and prints, as the last line of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1
// they are the per-layer ones of a traced run. The line before it
// holds the run's context (Go version, GOMAXPROCS, seed, line count,
// tail percentile). See README.md for the workloads and how to read
// the output. Run it through run.sh, which builds it first.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

const (
	// defaultSeed is the seed the stored reference values belong to:
	// the repo's historical default, and BENCH_pr10.json's.
	defaultSeed = 2005
	// heldOutSeed is never used while tuning a change; a claimed gain
	// must also hold on it.
	heldOutSeed = 7919
	// setupSamples is how many set-ups one run times, each in a fresh
	// process, for the median setup_s.
	setupSamples = 9
	// outDir receives the traced run's spans and CPU profile.
	outDir = ".bench_build/layerbench"
	// loopCap is the longest a closed loop runs past --seconds to reach
	// the op count its tail percentile needs, so a run on a slow host
	// still ends well within three minutes.
	loopCap = 120 * time.Second
)

var workloadNames = []string{"saturation", "fig1-large", "service-mix"}

// metric is one named reading of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
	seed := flag.Uint64("seed", defaultSeed, "input seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer run")
	setupOnly := flag.Bool("setup-only", false, "time one set-up, print it and exit (used by the benchmark itself)")
	flag.Parse()

	if err := run(*workload, *seed, time.Duration(*seconds*float64(time.Second)), *trace, *setupOnly); err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed uint64, d time.Duration, trace int, setupOnly bool) error {
	known := false
	for _, w := range workloadNames {
		known = known || w == workload
	}
	if !known {
		return fmt.Errorf("--workload %q: want one of %s", workload, strings.Join(workloadNames, ", "))
	}
	if setupOnly {
		s, b, err := timedSetup(workload, seed)
		if err != nil {
			return err
		}
		b.close()
		fmt.Printf("setup_s %v\n", s)
		return nil
	}
	ctx := runContext{
		Workload: workload, Seed: seed, HeldOutSeed: heldOutSeed, Trace: trace,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
	}
	var lines int
	var err error
	if lines, err = goLines("."); err != nil {
		return err
	}
	ctx.GoLines = lines

	var res result
	switch {
	case trace == 0:
		res, err = measure(workload, seed, d, &ctx)
	case workload == "service-mix":
		res, err = traceService(seed, d, &ctx)
	default:
		res, err = traceSim(workload, seed, d, &ctx)
	}
	if err != nil {
		return err
	}
	c, err := json.Marshal(map[string]any{"context": ctx})
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Printf("%s\n%s\n", c, line)
	return nil
}

// runContext describes the run. It is printed beside the result and
// gates nothing.
type runContext struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	HeldOutSeed uint64             `json:"held_out_seed"`
	Trace       int                `json:"trace"`
	GoVersion   string             `json:"go_version"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	NumCPU      int                `json:"nproc"`
	GoLines     int                `json:"go_lines_non_test"`
	SetupS      []float64          `json:"setup_s_samples,omitempty"`
	Tail        *tail              `json:"op_ms_tail,omitempty"`
	StealFrac   *float64           `json:"host_steal_frac,omitempty"`
	Host        *hostReadings      `json:"host,omitempty"`
	SelfMsPerOp map[string]float64 `json:"self_ms_per_op,omitempty"`
	OffPath     []string           `json:"off_path,omitempty"`
	Files       []string           `json:"files,omitempty"`
	Errors      []string           `json:"errors,omitempty"`
}

// hostReadings are what the end-to-end timings were scaled from.
type hostReadings struct {
	RefMs       []float64          `json:"reference_ms"` // the reference kernel's samples
	Factor      float64            `json:"factor"`       // the median of all over refNominalMs
	CPUClock    map[string]float64 `json:"cpu_clock"`    // the timings before scaling
	WallOpsPerS float64            `json:"wall_ops_per_s"`
}

// bench is a set-up workload, ready for timed ops.
type bench interface {
	// op performs op i and checks its output.
	op(i int) error
	close()
}

// setUp builds a workload's substrate and runs its untimed warm-up.
// The warm-up op is op 0 of the default seed whatever the run's seed,
// so set-up does the same work on every seed, and every run checks
// that op against the stored reference values.
func setUp(workload string, seed uint64) (bench, error) {
	if workload == "service-mix" {
		return newServiceMix(seed)
	}
	return warmSim(newSimBench(workload, seed), newSimBench(workload, defaultSeed))
}

// newSimBench returns saturation or fig1-large at seed.
func newSimBench(workload string, seed uint64) simBench {
	if workload == "fig1-large" {
		return newFig1Large(seed)
	}
	return newSaturation(seed)
}

// timedSetup times setUp on the process CPU clock after a collection,
// so neither process launch nor a leftover GC cycle lands in it.
func timedSetup(workload string, seed uint64) (float64, bench, error) {
	runtime.GC()
	start := processCPU()
	b, err := setUp(workload, seed)
	return (processCPU() - start).Seconds(), b, err
}

// simOps runs a simBench's untraced ops.
type simOps struct{ w simBench }

func warmSim(w, warm simBench) (bench, error) {
	if err := (simOps{warm}).op(0); err != nil {
		return nil, fmt.Errorf("warm-up op: %w", err)
	}
	return simOps{w}, nil
}

func (b simOps) close() {}
func (b simOps) op(i int) error {
	got, err := b.w.run(i)
	if err != nil {
		return err
	}
	return b.w.checkReference(i, got)
}

// loop is the outcome of a closed-loop phase.
type loop struct {
	lat       []float64 // process CPU ms, one per attempted op
	attempted int
	failed    int
	wall      time.Duration
	cpu       time.Duration // process CPU time over the whole loop
	errs      []string
}

func (l loop) ok() int { return l.attempted - l.failed }

// closedLoop is one client that starts its next op only after the
// previous one returned, until d has passed and at least minOps ops
// have run, or loopCap has passed. Ops are numbered from first. With
// one op in flight, the process CPU time spent while an op ran is that
// op's cost, so each op's latency is read on that clock. Between ops,
// untimed, hs (if not nil) samples the host's speed when one is due.
func closedLoop(d time.Duration, minOps, first int, op func(i int) error, hs *hostSpeed) loop {
	var l loop
	start, cpu0 := time.Now(), processCPU()
	for i := first; ; i++ {
		if el := time.Since(start); el >= loopCap || el >= d && i-first >= minOps {
			break
		}
		if hs != nil {
			hs.due()
		}
		u := processCPU()
		err := op(i)
		l.lat = append(l.lat, float64(processCPU()-u)/1e6)
		l.attempted++
		if err != nil {
			l.failed++
			if len(l.errs) < 3 {
				l.errs = append(l.errs, fmt.Sprintf("op %d: %v", i, err))
			}
		}
	}
	l.wall, l.cpu = time.Since(start), processCPU()-cpu0
	return l
}

// measure is the untraced run: the end-to-end metrics. Its timings
// are read on the process CPU clock and scaled to the nominal host
// speed by the run's reference timings, taken before the set-ups and
// through the loop. The readings before scaling are kept in the
// context.
func measure(workload string, seed uint64, d time.Duration, ctx *runContext) (result, error) {
	hs, err := newHostSpeed()
	if err != nil {
		return result{}, err
	}
	hs.sample()
	samples, err := childSetups(workload, seed, setupSamples-1)
	if err != nil {
		return result{}, err
	}
	own, b, err := timedSetup(workload, seed)
	if err != nil {
		return result{}, err
	}
	ctx.SetupS = append(samples, own)
	p := tailPercentile[workload]
	steal0, total0 := readSteal()
	l := closedLoop(d, minOps(p), 0, b.op, hs)
	steal1, total1 := readSteal()
	b.close()
	if total1 > total0 {
		f := (steal1 - steal0) / (total1 - total0)
		ctx.StealFrac = &f
	}
	if l.attempted == 0 {
		return result{}, fmt.Errorf("no op completed in %v", d)
	}
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}
	sorted := sortedCopy(l.lat)
	t, err := tailAt(sorted, p)
	if err != nil {
		return result{}, err
	}
	ctx.Tail = &t
	ctx.Errors = l.errs
	raw := map[string]float64{
		"setup_s":    median(ctx.SetupS),
		"ops_per_s":  float64(l.ok()) / l.cpu.Seconds(),
		"op_ms_p50":  median(sorted),
		"op_ms_tail": t.Value,
	}
	f := factor(hs.ms)
	ctx.Host = &hostReadings{
		RefMs: hs.ms, Factor: f, CPUClock: raw,
		WallOpsPerS: float64(l.ok()) / l.wall.Seconds(),
	}
	return result{
		Correct:   l.failed == 0,
		Attempted: l.attempted,
		Failed:    l.failed,
		Metrics: named(endToEnd, map[string]float64{
			"setup_s":     raw["setup_s"] / f,
			"ops_per_s":   raw["ops_per_s"] * f,
			"op_ms_p50":   raw["op_ms_p50"] / f,
			"op_ms_tail":  raw["op_ms_tail"] / f,
			"ok_frac":     float64(l.ok()) / float64(l.attempted),
			"peak_rss_mb": rss - refBytes/(1<<20),
		}, nil),
	}, nil
}

// childSetups times n set-ups, each in a fresh process of this
// binary, so every sample pays the once-per-process costs (plan cache,
// worm pool, heap growth) a user pays.
func childSetups(workload string, seed uint64, n int) ([]float64, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for k := 0; k < n; k++ {
		cmd := exec.Command(self, "--setup-only", "--workload", workload, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up process: %w", err)
		}
		v, ok := strings.CutPrefix(strings.TrimSpace(string(b)), "setup_s ")
		if !ok {
			return nil, fmt.Errorf("set-up process printed %q", b)
		}
		s, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// clockProcessCPUTime is CLOCK_PROCESS_CPUTIME_ID, which the syscall
// package does not name.
const clockProcessCPUTime = 2

// processCPU is the CPU time all threads of this process have run. The
// end-to-end timings are read on this clock, not the wall clock: a
// kernel with paravirtual steal accounting leaves out of it the time
// the hypervisor gave the CPU to another guest, and other processes'
// time slices never count in it. Both swing a shared host's wall-clock
// readings by far more than the benchmark's bounds (see README.md).
func processCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}

// readSteal returns the host's cumulative steal time and total CPU
// time from /proc/stat, in clock ticks; zeros where it cannot be read.
// Their deltas over a run say how much of it the hypervisor took away.
func readSteal() (steal, total float64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for k, v := range f[1:] {
		x, _ := strconv.ParseFloat(v, 64)
		if k < 8 { // guest time is already counted in user time
			total += x
		}
		if k == 7 {
			steal = x
		}
	}
	return steal, total
}

// goLines counts the lines of non-test Go files under root, leaving
// out this benchmark and build output: the size of the measured tree.
func goLines(root string) (int, error) {
	n := 0
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "layerbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		n += strings.Count(string(b), "\n")
		return nil
	})
	return n, err
}

// ratio is a/b, or 0 when b is 0: JSON has no NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runtimeCounters are the Go runtime's cumulative counters the
// per-layer runtime metrics are deltas of.
var runtimeCounters = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() []float64 {
	s := make([]metrics.Sample, len(runtimeCounters))
	for k, name := range runtimeCounters {
		s[k].Name = name
	}
	metrics.Read(s)
	out := make([]float64, len(s))
	for k := range s {
		switch s[k].Value.Kind() {
		case metrics.KindUint64:
			out[k] = float64(s[k].Value.Uint64())
		case metrics.KindFloat64:
			out[k] = s[k].Value.Float64()
		}
	}
	return out
}

// runtimeMetrics turns counter readings taken around ops ops into the
// per-op runtime metrics.
func runtimeMetrics(before, after []float64, ops int) map[string]float64 {
	d := make([]float64, len(before))
	for k := range d {
		d[k] = after[k] - before[k]
	}
	n := float64(max(ops, 1))
	return map[string]float64{
		"runtime.alloc_kb_per_op": d[0] / 1024 / n,
		"runtime.allocs_per_op":   d[1] / n,
		"runtime.gc_per_op":       d[2] / n,
		"runtime.gc_cpu_frac":     ratio(d[3], d[4]),
	}
}

// profiled runs fn under the CPU profiler and returns the per-layer
// split of its samples.
func profiled(path string, fn func()) (map[string]float64, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return nil, err
	}
	return cpuSplit(path)
}

// traceFiles creates the output directory and names the run's span
// and profile files.
func traceFiles(ctx *runContext) (spans, profile string, err error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return "", "", err
	}
	base := filepath.Join(outDir, fmt.Sprintf("%s-seed%d", ctx.Workload, ctx.Seed))
	spans, profile = base+".spans.jsonl", base+".cpu.pprof"
	ctx.Files = []string{spans, profile}
	return spans, profile, nil
}

type metricName struct{ name, unit string }

// endToEnd lists the metrics of the untraced run with their units.
var endToEnd = []metricName{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_p50", "ms"},
	{"op_ms_tail", "ms"},
	{"ok_frac", "fraction"},
	{"peak_rss_mb", "MB"},
}

// named attaches units to values, one entry per listed metric. A
// listed metric without a value reads 0 and is appended to missing.
func named(list []metricName, values map[string]float64, missing *[]string) map[string]metric {
	m := make(map[string]metric, len(list))
	for _, n := range list {
		v, ok := values[n.name]
		if !ok && missing != nil {
			*missing = append(*missing, n.name)
		}
		m[n.name] = metric{v, n.unit}
	}
	return m
}

// perLayer lists every per-layer metric with its unit. Each traced run
// reports all of them; one whose layer the workload never calls reads
// 0 and is named in the context's off_path list.
var perLayer = []metricName{
	{"sim.events_per_op", "count"},
	{"sim.run_ms_per_op", "ms"},
	{"sim.ns_per_event", "ns"},
	{"sim.batch_mean", "count"},
	{"network.new_ms_per_op", "ms"},
	{"network.worms_per_op", "count"},
	{"network.mean_util", "fraction"},
	{"network.hottest_util", "fraction"},
	{"routing.step_ns", "ns"},
	{"broadcast.plan_ms_per_op", "ms"},
	{"broadcast.plan_hit_frac", "fraction"},
	{"broadcast.execute_ms_per_op", "ms"},
	{"broadcast.messages_per_op", "count"},
	{"scenario.key_us", "us"},
	{"service.hit_us", "us"},
	{"service.http_us", "us"},
	{"scenario.run_ms", "ms"},
	{"export.emit_us", "us"},
	{"service.miss_ms", "ms"},
	{"service.hit_frac", "fraction"},
	{"service.cache_bytes", "bytes"},
	{"service.rejected", "count"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_per_op", "count"},
	{"runtime.gc_cpu_frac", "fraction"},
	{"cpu.sim_frac", "fraction"},
	{"cpu.network_frac", "fraction"},
	{"cpu.routing_frac", "fraction"},
	{"cpu.broadcast_frac", "fraction"},
	{"cpu.metrics_frac", "fraction"},
	{"cpu.scenario_frac", "fraction"},
	{"cpu.service_frac", "fraction"},
	{"cpu.runtime_frac", "fraction"},
	{"cpu.other_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
}

// layerResult fills in the per-layer result line from the values a
// traced run measured, recording the metrics it did not measure as
// off the workload's path.
func layerResult(values map[string]float64, cpu map[string]float64, attempted, failed int, ctx *runContext) result {
	for _, l := range cpuLayers {
		values["cpu."+l+"_frac"] = cpu[l]
	}
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: named(perLayer, values, &ctx.OffPath)}
}

// traceSim is the traced run of saturation or fig1-large. Its first
// three phases take a third of the time each and run fresh ops, so
// each meets the plan cache as the end-to-end run does. The first
// performs ops through the composed pipeline with spans. The second
// runs the next ops untraced and gives the runtime counters. The third
// runs the ops after those under the CPU profiler, for the CPU split of
// the program as the end-to-end run executes it. A last, untimed phase
// reruns the traced ops through the entry points for the parity check.
// trace.overhead_frac compares the rates of the first two phases, each
// op timed on the process CPU clock around the same work: the op and
// its reference check.
func traceSim(workload string, seed uint64, d time.Duration, ctx *runContext) (result, error) {
	w := newSimBench(workload, seed)
	spanPath, profPath, err := traceFiles(ctx)
	if err != nil {
		return result{}, err
	}
	tr := newTracer()
	obs := newPlanObserver()
	// The warm-up is the end-to-end run's, op 0 of the default seed,
	// but goes through the composed pipeline, so the plan observer sees
	// every PlanCached call this process makes.
	root := tr.begin("bench.op", -1, 0)
	_, _, err = newSimBench(workload, defaultSeed).compose(0, tr, root, obs)
	tr.end(root)
	if err != nil {
		return result{}, fmt.Errorf("warm-up op: %w", err)
	}
	tr.reset()
	obs.calls, obs.hits = 0, 0

	m := w.mesh()
	dor, wf, err := newWalkers(m)
	if err != nil {
		return result{}, err
	}
	var (
		traced    []bundle
		tracedLat []float64 // process CPU ms per traced op
		counts    opCounts
		steps     int
		failed    int
		phase     = d / 3
	)
	start := time.Now()
	for i := 0; time.Since(start) < phase; i++ {
		u := processCPU()
		root := tr.begin("bench.op", -1, int32(i))
		b, runs, err := w.compose(i, tr, root, obs)
		tr.end(root)
		if err == nil {
			err = w.checkReference(i, b)
		}
		tracedLat = append(tracedLat, float64(processCPU()-u)/1e6)
		if err != nil {
			failed++
			ctx.Errors = append(ctx.Errors, fmt.Sprintf("traced op %d: %v", i, err))
			b = nil
		}
		// Stored for the parity check of the last phase.
		traced = append(traced, b)
		counts.addRuns(runs)
		walk := tr.begin("routing.AppendNextChannels", -1, int32(i))
		for _, r := range runs {
			n, err := walkPlan(m, r.plan, dor, wf)
			steps += n
			if err != nil {
				return result{}, err
			}
		}
		tr.end(walk)
	}
	attempted := len(tracedLat)

	ops := simOps{w}
	before := readRuntime()
	l := closedLoop(phase, 0, attempted, ops.op, nil)
	after := readRuntime()
	var p loop
	cpu, err := profiled(profPath, func() { p = closedLoop(phase, 0, attempted+l.attempted, ops.op, nil) })
	if err != nil {
		return result{}, err
	}
	ctx.Errors = append(append(ctx.Errors, l.errs...), p.errs...)
	if attempted == 0 || l.attempted == 0 {
		return result{}, fmt.Errorf("no op completed in %v", phase)
	}
	for i, b := range traced {
		if b == nil {
			continue // already counted as failed
		}
		ref, err := w.run(i)
		if err == nil {
			err = parity(ref, b)
		}
		if err != nil {
			failed++
			ctx.Errors = append(ctx.Errors, fmt.Sprintf("op %d: %v", i, err))
		}
	}

	spans := tr.snapshot()
	if err := writeSpans(spanPath, spans); err != nil {
		return result{}, err
	}
	n := float64(attempted)
	runNs := sum(durations(spans, "sim.Run"))
	ctx.SelfMsPerOp = make(map[string]float64)
	for layer, ns := range selfByLayer(spans) {
		ctx.SelfMsPerOp[layer] = ns / 1e6 / n
	}

	v := runtimeMetrics(before, after, l.attempted)
	for k, x := range map[string]float64{
		"sim.events_per_op":           float64(counts.events) / n,
		"sim.run_ms_per_op":           runNs / 1e6 / n,
		"sim.ns_per_event":            ratio(runNs, float64(counts.events)),
		"sim.batch_mean":              ratio(float64(counts.batchEvents), float64(counts.batches)),
		"network.new_ms_per_op":       sum(durations(spans, "network.New")) / 1e6 / n,
		"network.worms_per_op":        float64(counts.worms) / n,
		"network.mean_util":           ratio(counts.util, float64(counts.nets)),
		"network.hottest_util":        ratio(counts.hottest, float64(counts.nets)),
		"routing.step_ns":             ratio(sum(durations(spans, "routing.AppendNextChannels")), float64(steps)),
		"broadcast.plan_ms_per_op":    sum(durations(spans, "broadcast.PlanCached")) / 1e6 / n,
		"broadcast.plan_hit_frac":     ratio(float64(obs.hits), float64(obs.calls)),
		"broadcast.execute_ms_per_op": sum(durations(spans, "broadcast.Execute")) / 1e6 / n,
		"broadcast.messages_per_op":   float64(counts.messages) / n,
		"trace.overhead_frac":         1 - (n/sum(tracedLat))/(float64(l.attempted)/sum(l.lat)),
	} {
		v[k] = x
	}
	return layerResult(v, cpu, attempted+l.attempted+p.attempted, failed+l.failed+p.failed, ctx), nil
}
