package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/broadcast"
	"repro/internal/network"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/topology"
)

// Benchmark-emission path: paperbench -benchjson FILE runs the Fig. 2
// saturation-load workload (see metrics.SaturationConfig) under all
// four algorithms through testing.Benchmark and records ns/op,
// allocs/op, B/op and events/sec into FILE, keyed by -benchphase.
// Re-running with a different phase merges into the same file, so one
// artifact carries the pre-PR baseline and the optimised numbers side
// by side; when both are present a summary with the per-algorithm and
// overall allocs/op reduction is recomputed. This is how the repo's
// perf trajectory (BENCH_pr2.json, BENCH_pr3.json, …) is produced.
// -benchtopo torus runs the same workload on the wraparound twin of
// the bench mesh (two dateline VCs) and records it as the "torus"
// phase, so BENCH_pr5.json carries the mesh trajectory point and the
// torus datapoint in one artifact.

// benchSchema identifies the artifact layout; bump on breaking change.
const benchSchema = "wormsim-bench/v1"

// benchResult is one (algorithm) measurement of the saturation workload.
type benchResult struct {
	// Name is the broadcast algorithm benchmarked.
	Name string `json:"name"`
	// Iterations is the b.N testing.Benchmark settled on.
	Iterations int `json:"iterations"`
	// NsPerOp is wall time per saturation study.
	NsPerOp float64 `json:"ns_per_op"`
	// AllocsPerOp and BytesPerOp are heap allocations per study.
	AllocsPerOp int64 `json:"allocs_per_op"`
	BytesPerOp  int64 `json:"bytes_per_op"`
	// EventsPerOp is the number of discrete events one study fires.
	EventsPerOp uint64 `json:"events_per_op"`
	// EventsPerSec is kernel throughput: events fired per wall second.
	EventsPerSec float64 `json:"events_per_sec"`
	// MeanCV is the scientific output (arrival-time CV), recorded so a
	// perf regression that changes simulation results is caught at a
	// glance.
	MeanCV float64 `json:"mean_cv"`
}

// benchPhase is one measurement pass (e.g. "ladder", "torus").
// Calendar records the event calendar the phase ran on: always
// benchCalendar now, "heap" on phases committed before the binary-heap
// calendar was retired. Topo records the topology kind the phase ran
// on ("mesh" when empty); the torus phase runs the same saturation
// workload on the wraparound twin of the bench mesh with two dateline
// VCs, so one artifact carries the mesh trajectory and the torus
// datapoint side by side. Store records the substrate memory model of a scale-
// workload phase ("dense" or "lazy"; empty on the trajectory phases,
// which always measure the dense store). Older artifacts may carry
// fields this struct no longer names; decoding ignores them.
type benchPhase struct {
	Recorded  string        `json:"recorded"`
	GoVersion string        `json:"go_version"`
	Calendar  string        `json:"calendar,omitempty"`
	Topo      string        `json:"topo,omitempty"`
	Store     string        `json:"store,omitempty"`
	Results   []benchResult `json:"results"`
}

// benchCalendar is the calendar every new phase records: the kernel's
// only one. The summary's kernel-coherence checks compare it against
// the "heap" phases of committed artifacts.
const benchCalendar = "ladder"

// benchSummary compares two phases of one artifact: "heap" vs
// "ladder" when both are present, else "baseline" vs "optimized".
type benchSummary struct {
	// Compared names the [from, to] phases the summary covers.
	Compared []string `json:"compared,omitempty"`
	// AllocsReductionPct is the overall percentage reduction in
	// allocs/op (summed across algorithms), to-phase vs from-phase.
	AllocsReductionPct float64 `json:"allocs_reduction_pct"`
	// NsRatio is total to-phase ns/op over total from-phase ns/op;
	// below 1 is a speedup.
	NsRatio float64 `json:"ns_ratio"`
	// BytesReductionPct is the overall percentage reduction in
	// bytes/op, to-phase vs from-phase — the headline of a
	// dense-vs-lazy scale pair.
	BytesReductionPct float64 `json:"bytes_reduction_pct,omitempty"`
	// PerAlgorithm maps algorithm name to its allocs/op reduction %.
	PerAlgorithm map[string]float64 `json:"per_algorithm_allocs_reduction_pct"`
	// PerAlgorithmEventsSpeedup maps algorithm name to the to-phase
	// events/sec over the from-phase events/sec (above 1 is faster).
	PerAlgorithmEventsSpeedup map[string]float64 `json:"per_algorithm_events_speedup,omitempty"`
}

// benchWorkload identifies the measured workload; phases are only
// comparable within one workload, and -benchguard refuses artifacts
// whose workloads differ. Kind is empty for the Fig. 2 saturation
// trajectory (the historical artifacts) and "scale-multicast" for the
// million-node sparse-traffic workload; Dests is the multicast fanout
// of the latter.
type benchWorkload struct {
	Kind         string  `json:"kind,omitempty"`
	Mesh         []int   `json:"mesh"`
	Length       int     `json:"length_flits"`
	Broadcasts   int     `json:"broadcasts"`
	Interarrival float64 `json:"interarrival_us"`
	Dests        int     `json:"dests,omitempty"`
	Seed         uint64  `json:"seed"`
}

// benchFile is the whole BENCH_*.json artifact.
type benchFile struct {
	Schema   string                 `json:"schema"`
	Workload benchWorkload          `json:"workload"`
	Phases   map[string]*benchPhase `json:"phases"`
	Summary  *benchSummary          `json:"summary,omitempty"`
}

// runBenchJSON dispatches one benchmark-and-record pass. benchtime is
// forwarded to the testing package ("" keeps the 1s default; "1x"
// suits CI smoke). workload selects what is measured: "saturation"
// (the Fig. 2 trajectory workload the BENCH_* artifacts track) or
// "scale" (the million-node sparse-multicast workload whose dense and
// lazy phases measure the substrate memory models). topo selects the
// saturation topology: "mesh" or "torus" (the wraparound twin with two
// dateline VCs, recorded as its own phase).
func runBenchJSON(path, phase, benchtime, topo, workload string) error {
	if benchtime != "" {
		testing.Init()
		if err := flag.Set("test.benchtime", benchtime); err != nil {
			return fmt.Errorf("paperbench: bad -benchtime %q: %v", benchtime, err)
		}
	}
	switch workload {
	case "saturation":
		return runBenchSaturation(path, phase, topo)
	case "scale":
		if topo != "mesh" {
			return fmt.Errorf("paperbench: the scale workload is mesh-only; drop -benchtopo %s", topo)
		}
		return runBenchScale(path, phase)
	}
	return fmt.Errorf("paperbench: -benchworkload %q (want saturation or scale)", workload)
}

// runBenchSaturation executes the saturation benchmark and merges the
// results into path under the given phase.
func runBenchSaturation(path, phase, topo string) error {
	if topo != "mesh" && topo != "torus" {
		return fmt.Errorf("paperbench: -benchtopo %q (want mesh or torus)", topo)
	}
	// dense/lazy name the scale workload's store phases; a saturation
	// measurement recorded under them would corrupt the dense-vs-lazy
	// summary of a scale artifact.
	if phase == "dense" || phase == "lazy" {
		return fmt.Errorf("paperbench: -benchphase %s is a scale-workload phase; pass -benchworkload scale", phase)
	}

	// "heap" names phases measured on the retired binary-heap
	// calendar; committed artifacts keep them, new runs cannot add one.
	if phase == "heap" {
		return fmt.Errorf("paperbench: -benchphase heap names the retired heap calendar; the kernel runs only the ladder (record under -benchphase ladder)")
	}
	// The trajectory phase names are reserved for the mesh workload:
	// recording a torus measurement under them would corrupt every
	// cross-PR comparison. The torus datapoint lives under "torus".
	if topo == "torus" {
		for _, reserved := range []string{"ladder", "baseline", "optimized"} {
			if phase == reserved {
				return fmt.Errorf("paperbench: -benchphase %s is a mesh trajectory phase; record the torus run under -benchphase torus", phase)
			}
		}
	}
	if phase == "torus" && topo != "torus" {
		return fmt.Errorf("paperbench: -benchphase torus needs -benchtopo torus")
	}

	file, err := loadOrInitBenchFile(path)
	if err != nil {
		return err
	}

	seed := uint64(2005)
	cfg := wormsim.SaturationConfig(seed)
	if err := setBenchWorkload(file, path, benchWorkload{
		Mesh:         wormsim.SaturationDims(),
		Length:       cfg.Length,
		Broadcasts:   cfg.Broadcasts,
		Interarrival: cfg.Interarrival,
		Seed:         seed,
	}); err != nil {
		return err
	}

	m := wormsim.NewMesh(wormsim.SaturationDims()...)
	bcfg := wormsim.SaturationConfig(seed)
	if topo == "torus" {
		// The wraparound twin of the bench mesh, on the torus network
		// defaults: two dateline virtual channels per physical channel.
		m = wormsim.NewTorus(wormsim.SaturationDims()...)
		bcfg.Net.VCs = 2
	}
	p := &benchPhase{
		Recorded:  time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Calendar:  benchCalendar,
	}
	if topo == "torus" {
		p.Topo = topo
	}
	for _, algo := range wormsim.Algorithms() {
		var events uint64
		var cv float64
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				st, err := wormsim.ContendedCVStudy(m, algo, bcfg)
				if err != nil {
					b.Fatal(err)
				}
				events = st.Events
				cv = st.CV.Mean()
			}
		})
		if r.N == 0 {
			return fmt.Errorf("paperbench: %s saturation benchmark did not run", algo.Name())
		}
		nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
		res := benchResult{
			Name:        algo.Name(),
			Iterations:  r.N,
			NsPerOp:     nsPerOp,
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			EventsPerOp: events,
			MeanCV:      cv,
		}
		if nsPerOp > 0 {
			res.EventsPerSec = float64(events) / (nsPerOp * 1e-9)
		}
		p.Results = append(p.Results, res)
		fmt.Fprintf(os.Stderr, "bench %s/%s: %.0f ns/op  %d allocs/op  %.0f events/sec\n",
			phase, res.Name, res.NsPerOp, res.AllocsPerOp, res.EventsPerSec)
	}
	file.Phases[phase] = p
	file.Summary = summarizeFile(file)
	return writeBenchFile(path, file)
}

// The scale workload: one 64-destination multicast on a million-node
// (2^20) mesh. Traffic touches a vanishing fraction of the substrate,
// so the dense store's up-front per-lane arrays dominate its per-run
// footprint while the lazy store allocates only the pages the worms
// actually cross — the dense-vs-lazy phase pair of a scale artifact
// measures exactly that gap. Destinations are spread evenly along the
// node-ID space, so the measurement is deterministic and no locality
// flatters the lazy store.
func scaleDims() []int { return []int{128, 128, 64} }

const (
	scaleDests  = 64  // multicast fanout
	scaleLength = 256 // message length in flits
	scaleChunk  = 8   // destinations carried per worm (Multicast.MaxPerPath)
)

// runBenchScale executes the scale benchmark on one substrate memory
// model (phase "dense" or "lazy") and merges the result into path.
func runBenchScale(path, phase string) error {
	if phase != "dense" && phase != "lazy" {
		return fmt.Errorf("paperbench: the scale workload records store phases; -benchphase %q (want dense or lazy)", phase)
	}
	file, err := loadOrInitBenchFile(path)
	if err != nil {
		return err
	}
	if err := setBenchWorkload(file, path, benchWorkload{
		Kind:       "scale-multicast",
		Mesh:       scaleDims(),
		Length:     scaleLength,
		Broadcasts: 1,
		Dests:      scaleDests,
	}); err != nil {
		return err
	}

	cfg := wormsim.DefaultConfig()
	var m *topology.Mesh
	if phase == "dense" {
		m = topology.NewMesh(scaleDims()...)
		cfg.Store = network.StoreDense
	} else {
		m = topology.NewMeshImplicit(scaleDims()...)
		cfg.Store = network.StoreLazy
	}
	dests := make([]topology.NodeID, 0, scaleDests)
	for i := 1; i <= scaleDests; i++ {
		dests = append(dests, topology.NodeID(i*(m.Nodes()/(scaleDests+1))))
	}
	mc := broadcast.NewMulticast(scaleChunk)

	p := &benchPhase{
		Recorded:  time.Now().UTC().Format(time.RFC3339),
		GoVersion: runtime.Version(),
		Calendar:  benchCalendar,
		Store:     phase,
	}
	var events uint64
	var cv float64
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			events, cv, err = runScaleOp(m, mc, dests, cfg)
			if err != nil {
				b.Fatal(err)
			}
		}
	})
	if r.N == 0 {
		return fmt.Errorf("paperbench: scale benchmark did not run")
	}
	nsPerOp := float64(r.T.Nanoseconds()) / float64(r.N)
	res := benchResult{
		Name:        mc.Name(),
		Iterations:  r.N,
		NsPerOp:     nsPerOp,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
		EventsPerOp: events,
		MeanCV:      cv,
	}
	if nsPerOp > 0 {
		res.EventsPerSec = float64(events) / (nsPerOp * 1e-9)
	}
	p.Results = []benchResult{res}
	fmt.Fprintf(os.Stderr, "bench %s/%s: %.0f ns/op  %d allocs/op  %d B/op  %.0f events/sec\n",
		phase, res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp, res.EventsPerSec)

	file.Phases[phase] = p
	file.Summary = summarizeFile(file)
	return writeBenchFile(path, file)
}

// runScaleOp plans and executes one multicast on an idle network over
// m. It mirrors broadcast.RunMulticast but keeps the simulator handle,
// so the op can report kernel events alongside the CV of the
// destination arrival times.
func runScaleOp(m *topology.Mesh, mc broadcast.Multicast, dests []topology.NodeID, cfg network.Config) (uint64, float64, error) {
	plan, err := mc.PlanMulticast(m, 0, dests)
	if err != nil {
		return 0, 0, err
	}
	if err := broadcast.ValidateMulticast(m, plan, dests); err != nil {
		return 0, 0, err
	}
	s := sim.New()
	net, err := network.New(s, m, cfg)
	if err != nil {
		return 0, 0, err
	}
	r, err := broadcast.Execute(net, plan, broadcast.Options{Length: scaleLength, Tag: "multicast"})
	if err != nil {
		return 0, 0, err
	}
	s.Run()
	var acc stats.Accumulator
	for _, d := range dests {
		at := r.Arrival[d]
		if at < 0 {
			return 0, 0, fmt.Errorf("paperbench: multicast destination %d never received (stuck: %v)", d, net.Stuck())
		}
		acc.Add(float64(at - r.Start))
	}
	return s.Fired(), acc.CV(), nil
}

// setBenchWorkload records the workload an artifact measures. Phases
// are only comparable when measured on one workload, so merging into
// an artifact recorded under different parameters is refused rather
// than letting summarize report a "speedup" that is really a workload
// change.
func setBenchWorkload(file *benchFile, path string, cur benchWorkload) error {
	if len(file.Phases) > 0 {
		old, _ := json.Marshal(file.Workload)
		now, _ := json.Marshal(cur)
		if string(old) != string(now) {
			return fmt.Errorf("paperbench: %s was recorded on workload %s, current workload is %s; start a fresh artifact",
				path, old, now)
		}
	}
	file.Workload = cur
	return nil
}

// loadOrInitBenchFile reads one bench artifact, returning a fresh one
// when path does not exist yet.
func loadOrInitBenchFile(path string) (*benchFile, error) {
	file, err := loadBenchFile(path)
	switch {
	case os.IsNotExist(err):
		file = &benchFile{Schema: benchSchema}
	case err != nil:
		return nil, err
	}
	if file.Phases == nil {
		file.Phases = map[string]*benchPhase{}
	}
	return file, nil
}

// writeBenchFile persists one bench artifact.
func writeBenchFile(path string, file *benchFile) error {
	out, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// summarizeFile picks the artifact's canonical phase pair — heap vs
// ladder when both exist, else baseline vs optimized — and compares
// them; nil when no pair is complete (e.g. a CI smoke artifact with
// only a "ci" phase).
func summarizeFile(file *benchFile) *benchSummary {
	// A pair is only summarized when its phases' recorded calendars
	// are coherent: heap/ladder phases must be measured on the
	// calendar they are named after, and a baseline/optimized pair
	// must share one kernel. (New phases all record the ladder; this
	// guards committed heap-era and hand-edited artifacts.)
	coherent := func(name string, p *benchPhase) bool {
		if p == nil {
			return false
		}
		if (name == "heap" || name == "ladder") && p.Calendar != "" && p.Calendar != name {
			return false
		}
		// A "torus" phase must be a torus measurement, and the mesh
		// trajectory phases must not be.
		if name == "torus" {
			return p.Topo == "torus"
		}
		// A store phase must measure the store it is named after.
		if name == "dense" || name == "lazy" {
			return p.Store == "" || p.Store == name
		}
		return p.Topo == "" || p.Topo == "mesh"
	}
	for _, pair := range [][2]string{{"heap", "ladder"}, {"ladder", "torus"}, {"baseline", "optimized"}, {"dense", "lazy"}} {
		a, b := file.Phases[pair[0]], file.Phases[pair[1]]
		if !coherent(pair[0], a) || !coherent(pair[1], b) {
			continue
		}
		// Every pair except heap/ladder (which differs by definition)
		// must share one kernel; a torus phase hand-recorded on the
		// heap would otherwise masquerade as the mesh-vs-torus cost.
		if pair[0] != "heap" && a.Calendar != "" && b.Calendar != "" && a.Calendar != b.Calendar {
			continue
		}
		if s := summarize(a, b); s != nil {
			s.Compared = []string{pair[0], pair[1]}
			return s
		}
	}
	return nil
}

// summarize compares the to phase against the from phase.
func summarize(from, to *benchPhase) *benchSummary {
	if from == nil || to == nil {
		return nil
	}
	base := map[string]benchResult{}
	for _, r := range from.Results {
		base[r.Name] = r
	}
	s := &benchSummary{
		PerAlgorithm:              map[string]float64{},
		PerAlgorithmEventsSpeedup: map[string]float64{},
	}
	var baseAllocs, optAllocs, baseBytes, optBytes int64
	var baseNs, optNs float64
	for _, r := range to.Results {
		b, ok := base[r.Name]
		if !ok {
			continue
		}
		baseAllocs += b.AllocsPerOp
		optAllocs += r.AllocsPerOp
		baseBytes += b.BytesPerOp
		optBytes += r.BytesPerOp
		baseNs += b.NsPerOp
		optNs += r.NsPerOp
		if b.AllocsPerOp > 0 {
			s.PerAlgorithm[r.Name] = 100 * float64(b.AllocsPerOp-r.AllocsPerOp) / float64(b.AllocsPerOp)
		}
		if b.EventsPerSec > 0 {
			s.PerAlgorithmEventsSpeedup[r.Name] = r.EventsPerSec / b.EventsPerSec
		}
	}
	if baseAllocs > 0 {
		s.AllocsReductionPct = 100 * float64(baseAllocs-optAllocs) / float64(baseAllocs)
	}
	if baseBytes > 0 {
		s.BytesReductionPct = 100 * float64(baseBytes-optBytes) / float64(baseBytes)
	}
	if baseNs > 0 {
		s.NsRatio = optNs / baseNs
	}
	return s
}

// guardPhases orders phase labels from most to least preferred when
// picking an artifact's representative (best-engineered) phase. The
// store phases trail the trajectory phases: they only appear in scale
// artifacts, where "lazy" is the engineered store and "dense" the
// reference.
var guardPhases = []string{"ladder", "optimized", "baseline", "lazy", "dense"}

// loadBenchFile reads and schema-checks one bench artifact.
func loadBenchFile(path string) (*benchFile, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	file := &benchFile{}
	if err := json.Unmarshal(raw, file); err != nil {
		return nil, fmt.Errorf("paperbench: %s is not a bench artifact: %v", path, err)
	}
	if file.Schema != benchSchema {
		return nil, fmt.Errorf("paperbench: %s has schema %q, want %q", path, file.Schema, benchSchema)
	}
	return file, nil
}

// runBenchGuard is the CI regression gate: it compares the
// representative phase of the artifact at newPath against the one at
// basePath — no benchmarks are run, both artifacts are committed
// measurements — and errors if any algorithm's events/sec dropped, or
// allocs/op or bytes/op rose, beyond the relative tolerance. Mode
// "alloc" skips the events/sec floor: allocation counts are
// machine-independent, so that mode suits guarding a freshly measured
// artifact against a committed one recorded on different hardware.
func runBenchGuard(newPath, basePath string, tol float64, mode string) error {
	if basePath == "" {
		return fmt.Errorf("paperbench: -benchguard needs -benchbaseline")
	}
	if mode != "full" && mode != "alloc" {
		return fmt.Errorf("paperbench: -benchguardmode %q (want full or alloc)", mode)
	}
	newFile, err := loadBenchFile(newPath)
	if err != nil {
		return err
	}
	baseFile, err := loadBenchFile(basePath)
	if err != nil {
		return err
	}
	oldW, _ := json.Marshal(baseFile.Workload)
	newW, _ := json.Marshal(newFile.Workload)
	if string(oldW) != string(newW) {
		return fmt.Errorf("paperbench: workloads differ (%s vs %s); the artifacts are not comparable", oldW, newW)
	}
	pick := func(f *benchFile, path string) (string, *benchPhase, error) {
		for _, name := range guardPhases {
			if p := f.Phases[name]; p != nil {
				return name, p, nil
			}
		}
		return "", nil, fmt.Errorf("paperbench: %s has no phase among %v", path, guardPhases)
	}
	newName, newPhase, err := pick(newFile, newPath)
	if err != nil {
		return err
	}
	baseName, basePhase, err := pick(baseFile, basePath)
	if err != nil {
		return err
	}
	base := map[string]benchResult{}
	for _, r := range basePhase.Results {
		base[r.Name] = r
	}
	fmt.Printf("bench guard: %s[%s] vs %s[%s], tolerance %.0f%%\n",
		newPath, newName, basePath, baseName, 100*tol)
	var failures []string
	compared := 0
	for _, r := range newPhase.Results {
		b, ok := base[r.Name]
		if !ok {
			continue
		}
		compared++
		evRatio, alRatio, byRatio := 0.0, 0.0, 0.0
		if b.EventsPerSec > 0 {
			evRatio = r.EventsPerSec / b.EventsPerSec
		}
		if b.AllocsPerOp > 0 {
			alRatio = float64(r.AllocsPerOp) / float64(b.AllocsPerOp)
		}
		if b.BytesPerOp > 0 {
			byRatio = float64(r.BytesPerOp) / float64(b.BytesPerOp)
		}
		fmt.Printf("  %-4s events/sec %11.0f -> %11.0f (%.2fx)   allocs/op %7d -> %7d (%.2fx)   bytes/op %9d -> %9d (%.2fx)\n",
			r.Name, b.EventsPerSec, r.EventsPerSec, evRatio, b.AllocsPerOp, r.AllocsPerOp, alRatio, b.BytesPerOp, r.BytesPerOp, byRatio)
		if mode == "full" && r.EventsPerSec < b.EventsPerSec*(1-tol) {
			failures = append(failures, fmt.Sprintf("%s events/sec regressed: %.0f -> %.0f", r.Name, b.EventsPerSec, r.EventsPerSec))
		}
		if float64(r.AllocsPerOp) > float64(b.AllocsPerOp)*(1+tol) {
			failures = append(failures, fmt.Sprintf("%s allocs/op regressed: %d -> %d", r.Name, b.AllocsPerOp, r.AllocsPerOp))
		}
		// The bytes/op ceiling belongs to the allocation gate only:
		// historical trajectory pairs legitimately trade bytes for
		// speed (PR 4's ladder arena grew DB/AB bytes/op), so "full"
		// keeps its original events/sec + allocs/op contract.
		if mode == "alloc" && b.BytesPerOp > 0 && float64(r.BytesPerOp) > float64(b.BytesPerOp)*(1+tol) {
			failures = append(failures, fmt.Sprintf("%s bytes/op regressed: %d -> %d", r.Name, b.BytesPerOp, r.BytesPerOp))
		}
	}
	if compared == 0 {
		return fmt.Errorf("paperbench: no common algorithms between %s and %s", newPath, basePath)
	}
	if len(failures) > 0 {
		return fmt.Errorf("paperbench: bench guard failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Printf("bench guard: ok (%d algorithms)\n", compared)
	return nil
}
