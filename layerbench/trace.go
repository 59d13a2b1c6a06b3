package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/broadcast"
	"repro/internal/topology"
)

// span is one timed call into a layer. Spans of one op share Op; an
// op's root span has Parent -1. ID is the span's index in the trace.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. It is safe for the
// concurrent clients of service-mix.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	// skip names a stage that call leaves out. Tests set it to prove
	// the parity check notices a missing stage.
	skip string
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) begin(name string, parent, op int32) int32 {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

func (t *tracer) rename(id int32, name string) {
	t.mu.Lock()
	t.spans[id].Name = name
	t.mu.Unlock()
}

// call runs fn under a span named name, unless name is the skipped
// stage.
func (t *tracer) call(name string, parent, op int32, fn func()) int32 {
	if name == t.skip {
		return -1
	}
	id := t.begin(name, parent, op)
	fn()
	t.end(id)
	return id
}

// reset drops every span recorded so far (the warm-up op's).
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// snapshot returns a copy of the finished trace.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the duration in ns of every span named name.
func durations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.dur()))
		}
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// selfTimes returns each span's duration minus the part of its
// interval that its direct children cover. Overlapping children are
// counted once, and a child reaching outside its parent is clipped to
// the parent's interval.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make([]int64, len(spans))
	for i, p := range spans {
		cs := kids[p.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		covered, reach := int64(0), p.Start
		for _, c := range cs {
			lo, hi := max(c.Start, reach), min(c.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[i] = p.dur() - covered
	}
	return self
}

// selfByLayer sums self time per layer, the span name's prefix up to
// the first dot ("sim.Run" → "sim").
func selfByLayer(spans []span) map[string]float64 {
	out := make(map[string]float64)
	for i, d := range selfTimes(spans) {
		layer, _, _ := strings.Cut(spans[i].Name, ".")
		out[layer] += float64(d)
	}
	return out
}

// writeSpans writes the trace as one JSON object per line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// planKey identifies a plan-cache entry as the broadcast layer keys
// it: substrate shape, algorithm and source.
type planKey struct {
	topo, algo string
	src        topology.NodeID
}

// planObserver classifies PlanCached calls from outside the cache: a
// call hits when it returns the very plan (same pointer) the previous
// call for that key returned. A first call, or one after the cache was
// dropped and the plan rebuilt, is a miss. It is exact as long as it
// sees every PlanCached call the process makes.
type planObserver struct {
	last        map[planKey]*broadcast.Plan
	calls, hits int
}

func newPlanObserver() *planObserver {
	return &planObserver{last: make(map[planKey]*broadcast.Plan)}
}

func (o *planObserver) observe(k planKey, p *broadcast.Plan) bool {
	prev, seen := o.last[k]
	o.last[k] = p
	o.calls++
	hit := seen && prev == p
	if hit {
		o.hits++
	}
	return hit
}

// cpuLayers are the packages the CPU split names; everything else is
// "other".
var cpuLayers = []string{"sim", "network", "routing", "broadcast", "metrics", "scenario", "service", "runtime", "other"}

// packageOf returns the import path of a pprof function name, such as
// "repro/internal/sim" for "repro/internal/sim.(*Simulator).Run".
func packageOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf maps a package to its entry in cpuLayers.
func layerOf(pkg string) string {
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok && slices.Contains(cpuLayers, name) {
		return name
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	return "other"
}

// cpuSplit summarises a CPU profile with the toolchain's pprof: the
// fraction of sampled self (flat) time spent in each layer.
func cpuSplit(profile string) (map[string]float64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=1000000", "-symbolize=none", profile).Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %w", err)
	}
	flat := make(map[string]float64)
	total := 0.0
	inTable := false
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if !inTable {
			inTable = len(f) > 0 && f[0] == "flat"
			continue
		}
		if len(f) < 6 {
			continue
		}
		d, err := time.ParseDuration(f[0])
		if err != nil {
			return nil, fmt.Errorf("pprof row %q: %w", line, err)
		}
		layer := layerOf(packageOf(strings.Join(f[5:], " ")))
		flat[layer] += d.Seconds()
		total += d.Seconds()
	}
	if total == 0 {
		return nil, fmt.Errorf("pprof: no samples in %s", profile)
	}
	for l := range flat {
		flat[l] /= total
	}
	return flat, nil
}
