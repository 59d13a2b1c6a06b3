package scenario

// Canonicalization and cache keying. Every simulation in this repo is
// deterministic — output is a pure function of the resolved spec, the
// seed it carries, and nothing else — so a stable hash of the resolved
// spec is a complete cache key: two requests with equal keys are
// guaranteed byte-identical results. internal/service builds its
// result cache and its concurrent-request dedupe on exactly this
// property.
//
// The canonical form is the spec AFTER applyDefaults and validate,
// with the orchestration-only knobs removed: Procs and Progress
// change how fast a run executes and how it reports, never what it
// produces (pinned by the procs-determinism tests), so they must not
// split the cache. Everything else — headings included, since they
// appear in the rendered artifact — is part of the key.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"

	"repro/internal/sim"
)

// CanonicalVersion identifies the canonical spec encoding. It is
// folded into every key, so bumping it — on any change to the
// encoding, to a workload default, or to simulation semantics that
// alters output bytes — invalidates all previously cached results at
// once.
const CanonicalVersion = "wormsim-spec/v2"

// canonicalSpec is the deterministic wire form of a resolved spec:
// fixed field order, orchestration knobs (Procs, Progress) omitted,
// empty-vs-default spellings normalised. encoding/json marshals struct
// fields in declaration order, so the bytes are stable across runs
// and processes.
type canonicalSpec struct {
	Version  string   `json:"version"`
	Name     string   `json:"name"`
	ID       string   `json:"id"`
	Title    string   `json:"title,omitempty"`
	XLabel   string   `json:"xlabel,omitempty"`
	YLabel   string   `json:"ylabel,omitempty"`
	Artifact Artifact `json:"artifact"`

	Workload   Workload  `json:"workload"`
	Axis       Axis      `json:"axis"`
	Topo       string    `json:"topo"`
	Topos      []string  `json:"topos,omitempty"`
	Dims       []int     `json:"dims,omitempty"`
	Sizes      [][]int   `json:"sizes,omitempty"`
	Xs         []float64 `json:"xs,omitempty"`
	Algorithms []string  `json:"algorithms"`
	Substrates []string  `json:"substrates,omitempty"`

	Length int     `json:"length"`
	Ts     float64 `json:"ts"`
	VCs    int     `json:"vcs"`
	Metric Metric  `json:"metric"`
	Store  string  `json:"store"`

	Interarrival        float64    `json:"interarrival,omitempty"`
	Faults              *FaultSpec `json:"faults,omitempty"`
	PerNodeInterarrival float64    `json:"per_node_interarrival,omitempty"`

	LoadScale         float64  `json:"load_scale,omitempty"`
	BroadcastFraction float64  `json:"broadcast_fraction,omitempty"`
	Pattern           string   `json:"pattern,omitempty"`
	HotspotFraction   float64  `json:"hotspot_fraction,omitempty"`
	BatchSize         int      `json:"batch_size,omitempty"`
	Batches           int      `json:"batches,omitempty"`
	Warmup            int      `json:"warmup,omitempty"`
	MaxTime           sim.Time `json:"max_time,omitempty"`
	MaxInjected       int      `json:"max_injected,omitempty"`

	Reps int    `json:"reps"`
	Seed uint64 `json:"seed"`
}

// Canonical resolves the spec's defaults, validates it, and returns
// its deterministic canonical encoding. Two specs canonicalise to the
// same bytes exactly when they run the same simulations and render
// the same artifact bytes — modulo the worker count, which is
// excluded because output never depends on it.
func (s Spec) Canonical() ([]byte, error) {
	rs := s.applyDefaults()
	if err := rs.validate(); err != nil {
		return nil, err
	}
	store := rs.Store
	if store == "" {
		store = "auto"
	}
	pattern := rs.Pattern
	if pattern == PatternUniform {
		// Uniform is the implicit default everywhere; spelling it out
		// must not split the cache against specs that leave it empty.
		pattern = ""
	}
	c := canonicalSpec{
		Version:  CanonicalVersion,
		Name:     rs.Name,
		ID:       rs.ID,
		Title:    rs.Title,
		XLabel:   rs.XLabel,
		YLabel:   rs.YLabel,
		Artifact: rs.Artifact,

		Workload:   rs.Workload,
		Axis:       rs.Axis,
		Topo:       rs.Topo,
		Topos:      rs.Topos,
		Dims:       rs.Dims,
		Sizes:      rs.Sizes,
		Xs:         rs.Xs,
		Algorithms: rs.Algorithms,
		Substrates: rs.Substrates,

		Length: rs.Length,
		Ts:     rs.Ts,
		VCs:    rs.VCs,
		Metric: rs.Metric,
		Store:  store,

		Interarrival:        rs.Interarrival,
		Faults:              rs.Faults,
		PerNodeInterarrival: rs.PerNodeInterarrival,

		LoadScale:         rs.LoadScale,
		BroadcastFraction: rs.BroadcastFraction,
		Pattern:           pattern,
		HotspotFraction:   rs.HotspotFraction,
		BatchSize:         rs.BatchSize,
		Batches:           rs.Batches,
		Warmup:            rs.Warmup,
		MaxTime:           rs.MaxTime,
		MaxInjected:       rs.MaxInjected,

		Reps: rs.Reps,
		Seed: rs.Seed,
	}
	return json.Marshal(c)
}

// Key returns the spec's cache key: the hex SHA-256 of the canonical
// encoding. Determinism makes the key a complete identity for the
// result bytes — equal keys imply byte-identical output for any worker
// count.
func (s Spec) Key() (string, error) {
	canon, err := s.Canonical()
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}
