// Package service is the serving tier over the deterministic
// simulator: a Server accepts run requests (a registry scenario name
// or an inline spec), canonicalizes them to a stable cache key
// (scenario.Spec.Key), and answers from a bounded LRU of rendered
// result bodies. Because output is byte-identical for any worker
// count at a fixed spec × seed, a cached body is never stale — the cache turns repeat requests from minutes of
// simulation into microseconds of memcpy.
//
// Misses are deduplicated singleflight-style: concurrent identical
// requests execute exactly one simulation and all wait on its result.
// Distinct misses go through a bounded priority admission queue
// (runner.Executor); when the queue is full the server sheds load
// explicitly with ErrBusy, which the HTTP layer maps to
// 429 + Retry-After rather than letting latency collapse for
// everyone admitted.
package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/export"
	"repro/internal/runner"
	"repro/internal/scenario"
)

// DefaultSeed is the seed applied when a request names a registry
// scenario without one — the same default cmd/sweep uses, so a bare
// service request and a bare sweep invocation produce identical bytes.
const DefaultSeed = 2005

// ErrBusy is returned when the admission queue is full. The HTTP
// layer maps it to 429 Too Many Requests with a Retry-After hint.
var ErrBusy = errors.New("service: admission queue full, retry later")

// ErrPanic marks a run whose simulation panicked. The server recovers
// the panic, answers the request with 500 and keeps serving.
var ErrPanic = errors.New("service: simulation panicked")

// DefaultCacheBytes is the result cache's default byte budget.
const DefaultCacheBytes = 64 << 20 // 64 MiB

// maxRequestBytes bounds a POST /v1/run body. A RunRequest carrying an
// inline spec encodes to a few KiB, so 1 MiB is ample; a larger body
// is answered 413 before any of it is resolved or simulated.
const maxRequestBytes = 1 << 20

// Config sizes the server. Zero values pick serving defaults.
type Config struct {
	// Procs is the simulation worker count (0 = one per core). Each
	// worker runs one admitted request's scenario at a time.
	Procs int
	// QueueCap bounds how many admitted misses may wait for a worker
	// (default 64). Beyond it, requests are shed with ErrBusy.
	QueueCap int
	// CacheBytes bounds the result LRU by total cached body bytes
	// (default 64 MiB). Bodies larger than the whole budget are served
	// but never cached.
	CacheBytes int64
	// RetryAfter is the hint returned with 429 responses
	// (default 1s, rounded up to whole seconds on the wire).
	RetryAfter time.Duration
}

// call is one in-flight simulation all identical requests wait on.
type call struct {
	done chan struct{} // closed when body/err are final
	body []byte
	err  error
}

// Server canonicalizes, caches, deduplicates and schedules run
// requests. Create with New, serve via Handler, stop with Close.
type Server struct {
	cfg     Config
	pool    *runner.Pool
	exec    *runner.Executor
	metrics serviceMetrics

	mu       sync.Mutex
	cache    *resultCache
	inflight map[string]*call

	// run executes one admitted miss: scenario.RunTo, which tests
	// replace to make a miss panic.
	run func(context.Context, scenario.Spec, ...scenario.Sink) (*scenario.Result, error)
}

// New returns a started server: its workers are live and Handler can
// be served immediately.
func New(cfg Config) *Server {
	if cfg.QueueCap <= 0 {
		cfg.QueueCap = 64
	}
	if cfg.CacheBytes <= 0 {
		cfg.CacheBytes = DefaultCacheBytes
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	pool := runner.New(cfg.Procs)
	return &Server{
		cfg:      cfg,
		pool:     pool,
		exec:     runner.NewExecutor(pool, cfg.QueueCap),
		cache:    newResultCache(cfg.CacheBytes),
		inflight: make(map[string]*call),
		run:      scenario.RunTo,
	}
}

// Close stops admission and drains: every already-admitted simulation
// completes (and its waiters are answered) before Close returns. New
// submissions fail with runner.ErrClosed → ErrBusy.
func (s *Server) Close() { s.exec.Close() }

// RunRequest is the JSON body of POST /v1/run. Exactly one of
// Scenario (a registry name) or Spec (an inline scenario.Spec) names
// the work; the remaining fields mirror cmd/sweep's flags and
// override the resolved spec the same way.
type RunRequest struct {
	Scenario string         `json:"scenario,omitempty"`
	Spec     *scenario.Spec `json:"spec,omitempty"`

	Seed   *uint64 `json:"seed,omitempty"` // nil = DefaultSeed for registry scenarios
	Reps   int     `json:"reps,omitempty"`
	Mesh   []int   `json:"mesh,omitempty"`
	Store  string  `json:"store,omitempty"`
	Faults int     `json:"faults,omitempty"`

	// Procs caps the replication workers of THIS run (0 = all cores).
	// Orchestration only: it never enters the cache key, because
	// output is byte-identical for any value.
	Procs int `json:"procs,omitempty"`
	// Priority orders admitted misses (higher first, FIFO within a
	// priority). Hits and dedup joins ignore it — they never queue.
	Priority int `json:"priority,omitempty"`
	// Format selects the response body encoding: "json" (default),
	// "csv" (byte-identical to cmd/sweep), or "text".
	Format string `json:"format,omitempty"`
}

// decodeRequest parses one RunRequest JSON body. Unknown fields are
// errors, so a misspelled override is rejected instead of silently
// running the default.
func decodeRequest(r io.Reader) (*RunRequest, error) {
	var req RunRequest
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// resolve turns a request into the spec to run plus its cache
// identity. Errors are client errors (bad name, invalid spec).
func (s *Server) resolve(req *RunRequest) (spec scenario.Spec, specKey, format string, err error) {
	format = req.Format
	if format == "" {
		format = "json"
	}
	if _, err = export.NewSink(format, nil); err != nil {
		return spec, "", "", err
	}

	switch {
	case req.Scenario != "" && req.Spec != nil:
		return spec, "", "", errors.New("request names both a scenario and an inline spec; send one")
	case req.Scenario != "":
		seed := uint64(DefaultSeed)
		if req.Seed != nil {
			seed = *req.Seed
		}
		opts := []scenario.Option{
			scenario.WithReps(req.Reps),
			scenario.WithSeed(seed),
			scenario.WithFaults(req.Faults),
			scenario.WithStore(req.Store),
		}
		if len(req.Mesh) > 0 {
			opts = append(opts, scenario.WithMesh(req.Mesh...))
		}
		if spec, err = scenario.Build(req.Scenario, opts...); err != nil {
			return spec, "", "", err
		}
	case req.Spec != nil:
		spec = *req.Spec
		if req.Seed != nil {
			spec.Seed = *req.Seed
		}
		scenario.WithReps(req.Reps)(&spec)
		scenario.WithFaults(req.Faults)(&spec)
		scenario.WithStore(req.Store)(&spec)
		if len(req.Mesh) > 0 {
			scenario.WithMesh(req.Mesh...)(&spec)
		}
	default:
		return spec, "", "", errors.New("request needs a scenario name or an inline spec")
	}
	spec.Procs = req.Procs
	spec.Progress = nil

	if specKey, err = spec.Key(); err != nil {
		return spec, "", "", err
	}
	return spec, specKey, format, nil
}

// Outcome classifies how a request was answered.
type Outcome string

const (
	OutcomeHit   Outcome = "hit"   // served from the result cache
	OutcomeMiss  Outcome = "miss"  // this request executed the simulation
	OutcomeDedup Outcome = "dedup" // joined an identical in-flight miss
)

// Run resolves and answers one request. The returned body is shared
// with the cache — callers must not mutate it. key identifies the
// resolved spec (format-independent) for response headers and logs,
// also when its simulation failed. A simulation that panics fails
// with ErrPanic.
func (s *Server) Run(ctx context.Context, req *RunRequest) (body []byte, outcome Outcome, key string, err error) {
	s.metrics.requests.Add(1)
	start := time.Now()

	spec, specKey, format, err := s.resolve(req)
	if err != nil {
		s.metrics.failures.Add(1)
		return nil, "", "", err
	}
	cacheKey := specKey + "/" + format

	s.mu.Lock()
	if body, ok := s.cache.get(cacheKey); ok {
		s.mu.Unlock()
		s.metrics.hits.Add(1)
		s.metrics.hitLatency.observe(time.Since(start).Seconds())
		return body, OutcomeHit, specKey, nil
	}
	if c, ok := s.inflight[cacheKey]; ok {
		s.mu.Unlock()
		s.metrics.deduped.Add(1)
		return s.wait(ctx, c, start, OutcomeDedup, specKey)
	}
	c := &call{done: make(chan struct{})}
	s.inflight[cacheKey] = c
	s.mu.Unlock()

	err = s.exec.Submit(req.Priority, func() {
		var buf bytes.Buffer
		var err error
		// A panic must neither end the executor's worker, and with it
		// the daemon, nor leave the call's waiters hanging.
		defer func() {
			if r := recover(); r != nil {
				s.metrics.panics.Add(1)
				err = fmt.Errorf("%w: spec %s: %v", ErrPanic, specKey, r)
			}
			s.finish(cacheKey, c, buf.Bytes(), err)
		}()
		sink, err := export.NewSink(format, &buf)
		if err == nil {
			_, err = s.run(context.Background(), spec, sink)
		}
	})
	if err != nil {
		// Shed: resolve the call with the rejection so any waiter
		// that raced onto it while we were unlocked is answered too.
		if errors.Is(err, runner.ErrQueueFull) || errors.Is(err, runner.ErrClosed) {
			err = ErrBusy
		}
		s.finish(cacheKey, c, nil, err)
		s.metrics.rejected.Add(1)
		return nil, "", "", err
	}
	return s.wait(ctx, c, start, OutcomeMiss, specKey)
}

// finish publishes a call's result, fills the cache on success, and
// wakes every waiter.
func (s *Server) finish(cacheKey string, c *call, body []byte, err error) {
	s.mu.Lock()
	delete(s.inflight, cacheKey)
	if err == nil {
		s.cache.add(cacheKey, body)
	}
	s.mu.Unlock()
	c.body, c.err = body, err
	close(c.done)
}

// wait blocks until c resolves or ctx fires. The simulation itself is
// NOT cancelled on ctx — other requests may be waiting on the same
// call, and a deterministic result is always worth caching.
func (s *Server) wait(ctx context.Context, c *call, start time.Time, outcome Outcome, specKey string) ([]byte, Outcome, string, error) {
	select {
	case <-c.done:
	case <-ctx.Done():
		return nil, "", "", ctx.Err()
	}
	if c.err != nil {
		if !errors.Is(c.err, ErrBusy) {
			s.metrics.failures.Add(1)
		}
		return nil, "", specKey, c.err
	}
	if outcome == OutcomeMiss {
		s.metrics.misses.Add(1)
	}
	s.metrics.missLatency.observe(time.Since(start).Seconds())
	return c.body, outcome, specKey, nil
}

// Counts is a point-in-time snapshot of the request counters, for
// tests and the loadgen report. The /metrics endpoint is the wire
// format; this is the programmatic one.
type Counts struct {
	Requests, Hits, Deduped, Misses, Rejected, Failures uint64
}

// Counts snapshots the request counters.
func (s *Server) Counts() Counts {
	return Counts{
		Requests: s.metrics.requests.Load(),
		Hits:     s.metrics.hits.Load(),
		Deduped:  s.metrics.deduped.Load(),
		Misses:   s.metrics.misses.Load(),
		Rejected: s.metrics.rejected.Load(),
		Failures: s.metrics.failures.Load(),
	}
}

// HitQuantile and MissQuantile report latency quantiles (seconds)
// observed on each path since start; 0 with no observations.
func (s *Server) HitQuantile(q float64) float64  { return s.metrics.hitLatency.quantile(q) }
func (s *Server) MissQuantile(q float64) float64 { return s.metrics.missLatency.quantile(q) }

// Handler returns the service's HTTP surface:
//
//	POST /v1/run       run (or fetch) a scenario; body is a RunRequest
//	GET  /v1/scenarios list registry scenarios with summaries
//	GET  /healthz      liveness probe
//	GET  /metrics      Prometheus text exposition
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/run", s.handleRun)
	mux.HandleFunc("/v1/scenarios", s.handleScenarios)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST a RunRequest JSON body", http.StatusMethodNotAllowed)
		return
	}
	req, err := decodeRequest(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		s.metrics.failures.Add(1)
		if tooBig := (*http.MaxBytesError)(nil); errors.As(err, &tooBig) {
			http.Error(w, fmt.Sprintf("request body exceeds %d bytes", tooBig.Limit), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, "bad request body: "+err.Error(), http.StatusBadRequest)
		return
	}

	body, outcome, key, err := s.Run(r.Context(), req)
	switch {
	case err == nil:
	case errors.Is(err, ErrBusy):
		w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
		http.Error(w, err.Error(), http.StatusTooManyRequests)
		return
	case errors.Is(err, ErrPanic):
		w.Header().Set("X-Wormsim-Key", key)
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// Client went away; status is cosmetic but 499-style close.
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	default:
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	// The body bytes are identical whether this was a hit, a miss or
	// a dedup join; only headers tell the paths apart, so caching can
	// never change what a client parses.
	w.Header().Set("Content-Type", contentType(req.Format))
	w.Header().Set("X-Wormsim-Cache", string(outcome))
	w.Header().Set("X-Wormsim-Key", key)
	w.Write(body)
}

func contentType(format string) string {
	switch format {
	case "csv":
		return "text/csv; charset=utf-8"
	case "text":
		return "text/plain; charset=utf-8"
	default:
		return "application/json; charset=utf-8"
	}
}

func (s *Server) handleScenarios(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	type entry struct {
		Name    string `json:"name"`
		Summary string `json:"summary"`
	}
	list := make([]entry, 0)
	for _, name := range scenario.Names() {
		d, _ := scenario.Lookup(name)
		list = append(list, entry{Name: name, Summary: d.Summary})
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(list)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "GET only", http.StatusMethodNotAllowed)
		return
	}
	s.mu.Lock()
	cacheLen := s.cache.len()
	cacheBytes := s.cache.resident()
	s.mu.Unlock()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.metrics.writeProm(w, s.exec.QueueDepth(), s.exec.InFlight(), cacheLen, cacheBytes)
}
