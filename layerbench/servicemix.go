package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/export"
	"repro/internal/scenario"
	"repro/internal/service"
)

// The service-mix stream. About nine requests in ten repeat one of a
// fixed hot set of registry requests and are cache hits; every tenth
// is a fresh-seed miss, rotating over coldScenarios. All run at 4×4×4
// with two replications on one simulation worker, so one miss costs
// milliseconds, not seconds.
var (
	hotSet = []struct{ scenario, format string }{
		{"fig1", "json"}, {"fig1", "csv"}, {"fig2", "json"}, {"table1", "text"},
		{"table1", "json"}, {"saturation", "json"}, {"saturation", "csv"}, {"fig2-faults", "json"},
	}
	coldScenarios = []string{"fig1", "fig2", "table1", "saturation", "fig2-faults"}
)

const (
	hotSeed      = defaultSeed
	serviceReps  = 2
	serviceProcs = 1
	// serviceCacheBytes holds the hot set (about 30 KB) and a handful
	// of cold bodies (1–11 KB each). Every run serves far more cold
	// bytes than that, so misses evict and the cache writes while it
	// serves reads.
	serviceCacheBytes = 128 << 10
)

// streamReq is request i of a seed's stream.
type streamReq struct {
	Hot int // index into hotSet, or -1 for a fresh-seed miss
	Req service.RunRequest
}

func runRequest(name, format string, seed uint64) service.RunRequest {
	return service.RunRequest{
		Scenario: name, Seed: &seed, Reps: serviceReps, Mesh: []int{4, 4, 4},
		Procs: serviceProcs, Format: format,
	}
}

// streamAt returns request i of seed's stream. It depends on nothing
// else, so the stream can be resumed at any index.
func streamAt(seed uint64, i int) streamReq {
	r := mix(seed, i)
	if i%10 == 9 {
		return streamReq{Hot: -1, Req: runRequest(coldScenarios[(i/10)%len(coldScenarios)], "json", r)}
	}
	h := int(r % uint64(len(hotSet)))
	return streamReq{Hot: h, Req: runRequest(hotSet[h].scenario, hotSet[h].format, hotSeed)}
}

// specOf resolves a registry request the way the server does, for the
// in-process probe of the layers under it.
func specOf(req service.RunRequest) (scenario.Spec, error) {
	spec, err := scenario.Build(req.Scenario,
		scenario.WithReps(req.Reps), scenario.WithSeed(*req.Seed),
		scenario.WithFaults(req.Faults), scenario.WithStore(req.Store),
		scenario.WithMesh(req.Mesh...))
	if err != nil {
		return spec, err
	}
	spec.Procs = req.Procs
	spec.Progress = nil
	return spec, nil
}

// serviceMix is a live server on loopback HTTP with one keep-alive
// client, the hot set already primed.
type serviceMix struct {
	seed   uint64
	srv    *service.Server
	hs     *http.Server
	served chan struct{} // closed when hs.Serve has returned
	url    string
	client *http.Client // the closed loop's one keep-alive client
	first  [][]byte     // the body first served for each hot request

	hits, requests int
}

func newServiceMix(seed uint64) (*serviceMix, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	w := &serviceMix{
		seed:   seed,
		srv:    service.New(service.Config{Procs: serviceProcs, CacheBytes: serviceCacheBytes}),
		served: make(chan struct{}),
		url:    "http://" + ln.Addr().String(),
		first:  make([][]byte, len(hotSet)),
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	go func() {
		defer close(w.served)
		w.hs.Serve(ln)
	}()
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	for h, hot := range hotSet {
		status, _, body, err := w.post(runRequest(hot.scenario, hot.format, hotSeed))
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d: %s", status, body)
		}
		if err == nil {
			err = checkHotReference(h, body)
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("priming %s/%s: %w", hot.scenario, hot.format, err)
		}
		w.first[h] = body
	}
	return w, nil
}

func (w *serviceMix) close() {
	w.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	w.hs.Shutdown(ctx)
	<-w.served
	w.srv.Close()
}

// post sends one request and reads the whole reply.
func (w *serviceMix) post(req service.RunRequest) (status int, outcome string, body []byte, err error) {
	payload, err := json.Marshal(req)
	if err != nil {
		return 0, "", nil, err
	}
	resp, err := w.client.Post(w.url+"/v1/run", "application/json", bytes.NewReader(payload))
	if err != nil {
		return 0, "", nil, err
	}
	defer resp.Body.Close()
	body, err = io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Wormsim-Cache"), body, err
}

// exchange sends request i of the stream and tallies how the server
// answered it.
func (w *serviceMix) exchange(i int) (sr streamReq, status int, outcome string, body []byte, err error) {
	sr = streamAt(w.seed, i)
	status, outcome, body, err = w.post(sr.Req)
	w.requests++
	if outcome == string(service.OutcomeHit) {
		w.hits++
	}
	return sr, status, outcome, body, err
}

func (w *serviceMix) op(i int) error {
	sr, status, _, body, err := w.exchange(i)
	return checkReply(sr, status, body, err, w.first)
}

// tracedOp is op with a span around each HTTP round trip, named after
// how the server answered it.
func (w *serviceMix) tracedOp(tr *tracer) func(i int) error {
	return func(i int) error {
		root := tr.begin("http.request", -1, int32(i))
		sr, status, outcome, body, err := w.exchange(i)
		tr.end(root)
		tr.rename(root, "http.request/"+outcome)
		return checkReply(sr, status, body, err, w.first)
	}
}

// checkReply is the output check of one request: a 200, and a body
// byte-equal to the first one served for a hot request, or a valid
// JSON document for a fresh one.
func checkReply(sr streamReq, status int, body []byte, err error, first [][]byte) error {
	switch {
	case err != nil:
		return err
	case status != http.StatusOK:
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	case sr.Hot >= 0 && !bytes.Equal(body, first[sr.Hot]):
		return fmt.Errorf("hot request %d: body differs from the first one served", sr.Hot)
	case sr.Hot < 0 && !json.Valid(body):
		return fmt.Errorf("fresh %s request: body is not JSON", sr.Req.Scenario)
	}
	return nil
}

// hotRef holds the SHA-256 of each hot body, in hotSet order. The hot
// set does not depend on the seed, so every run checks it.
var hotRef = []string{
	"456bacac9c41898189b61dbe7a22b599a8ecbaa998034f58c76a9a6f9bf5f009",
	"cb98293715eabe41231883416a96d2fc64a63abb61e4a0fdf8e3837283c8a491",
	"312582f1130dceabfb8792da74e391e693f5c2a59377fd8b30e4f8ecc3101557",
	"04df7997799c55d7af8b14909140943ffebc2f50a4a5cb2b35ff2fb665a641fe",
	"e5006b35d8e3994e66add5f108fa96ab02bf52fedda5d3129490dccf7db18701",
	"84f799f0e9ffa5bc2a629678bbb8b28266b2e31ae58cc1b376e69230a9c27856",
	"d274f49f1726b7cd27fa6eac76a0bfe70301f2fbfd648d15ff09a057a74accde",
	"dd5c7c0b984981f32244c80597e7de0db75dd2549fafbd98ec809638ee6a48bd",
}

func checkHotReference(h int, body []byte) error {
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != hotRef[h] {
		return fmt.Errorf("body hash %s, stored reference %s", got, hotRef[h])
	}
	return nil
}

// cacheBytes scrapes the resident result-cache size from /metrics.
func (w *serviceMix) cacheBytes() (float64, error) {
	resp, err := w.client.Get(w.url + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "wormsimd_cache_bytes "); ok {
			return strconv.ParseFloat(v, 64)
		}
	}
	return 0, fmt.Errorf("/metrics has no wormsimd_cache_bytes")
}

// probe replays the start of the stream in-process against a fresh
// server, timing the layers under the HTTP surface: Spec.Key,
// Server.Run by outcome, and for every miss scenario.Run and
// Sink.Emit on the same spec. The emitted bytes must equal the body
// the server produced.
func probe(seed uint64, d time.Duration, tr *tracer) (attempted, failed int, errs []string) {
	srv := service.New(service.Config{Procs: serviceProcs, CacheBytes: serviceCacheBytes})
	defer srv.Close()
	ctx := context.Background()
	start := time.Now()
	for i := 0; time.Since(start) < d; i++ {
		attempted++
		if err := probeOne(ctx, srv, streamAt(seed, i), int32(i), tr); err != nil {
			failed++
			if len(errs) < 3 {
				errs = append(errs, fmt.Sprintf("probe %d: %v", i, err))
			}
		}
	}
	return attempted, failed, errs
}

func probeOne(ctx context.Context, srv *service.Server, sr streamReq, op int32, tr *tracer) error {
	root := tr.begin("bench.request", -1, op)
	defer tr.end(root)
	spec, err := specOf(sr.Req)
	if err != nil {
		return err
	}
	var key string
	tr.call("scenario.Spec.Key", root, op, func() { key, err = spec.Key() })
	if err != nil {
		return err
	}
	var body []byte
	var outcome service.Outcome
	var served string
	id := tr.call("service.Server.Run", root, op, func() { body, outcome, served, err = srv.Run(ctx, &sr.Req) })
	if err != nil {
		return err
	}
	tr.rename(id, "service.Server.Run/"+string(outcome))
	if served != key {
		return fmt.Errorf("server key %s, resolved key %s", served, key)
	}
	if outcome != service.OutcomeMiss {
		return nil
	}
	var res *scenario.Result
	tr.call("scenario.Run", root, op, func() { res, err = scenario.Run(ctx, spec) })
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	sink, err := export.NewSink(sr.Req.Format, &buf)
	if err != nil {
		return err
	}
	tr.call("export.Sink.Emit", root, op, func() { err = sink.Emit(res) })
	if err != nil {
		return err
	}
	if !bytes.Equal(buf.Bytes(), body) {
		return fmt.Errorf("emitted %d bytes differ from the %d the server returned", buf.Len(), len(body))
	}
	return nil
}

// traceService is the traced run of service-mix, on one server: a
// third of the time with a span per HTTP round trip, a third untraced,
// a third untraced under the CPU profiler, then the in-process probe
// of the layers under HTTP. trace.overhead_frac compares the rates of
// the first two thirds, per process CPU second.
func traceService(seed uint64, d time.Duration, ctx *runContext) (result, error) {
	spanPath, profPath, err := traceFiles(ctx)
	if err != nil {
		return result{}, err
	}
	w, err := newServiceMix(seed)
	if err != nil {
		return result{}, err
	}
	defer w.close()
	tr := newTracer()
	phase := d / 3

	traced := closedLoop(phase, 0, 0, w.tracedOp(tr), nil)
	before := readRuntime()
	untraced := closedLoop(phase, 0, traced.attempted, w.op, nil)
	after := readRuntime()
	var profile loop
	cpu, err := profiled(profPath, func() {
		profile = closedLoop(phase, 0, traced.attempted+untraced.attempted, w.op, nil)
	})
	if err != nil {
		return result{}, err
	}
	pa, pf, perrs := probe(seed, d/4, tr)
	ctx.Errors = append(append(append(append(ctx.Errors, traced.errs...), untraced.errs...), profile.errs...), perrs...)

	cb, err := w.cacheBytes()
	if err != nil {
		return result{}, err
	}
	spans := tr.snapshot()
	if err := writeSpans(spanPath, spans); err != nil {
		return result{}, err
	}
	ctx.SelfMsPerOp = make(map[string]float64)
	for layer, ns := range selfByLayer(spans) {
		ctx.SelfMsPerOp[layer] = ns / 1e6 / float64(traced.attempted+pa)
	}
	med := func(name string) float64 { return median(durations(spans, name)) }
	hitUs := med("service.Server.Run/hit") / 1e3
	v := runtimeMetrics(before, after, untraced.attempted)
	hitFrac := float64(w.hits) / float64(w.requests)
	for k, x := range map[string]float64{
		"scenario.key_us":     med("scenario.Spec.Key") / 1e3,
		"service.hit_us":      hitUs,
		"service.http_us":     med("http.request/hit")/1e3 - hitUs,
		"scenario.run_ms":     med("scenario.Run") / 1e6,
		"export.emit_us":      med("export.Sink.Emit") / 1e3,
		"service.miss_ms":     med("service.Server.Run/miss") / 1e6,
		"service.hit_frac":    hitFrac,
		"service.cache_bytes": cb,
		"service.rejected":    float64(w.srv.Counts().Rejected),
		"trace.overhead_frac": 1 - (float64(traced.ok())/traced.cpu.Seconds())/(float64(untraced.ok())/untraced.cpu.Seconds()),
	} {
		v[k] = x
	}
	return layerResult(v, cpu, traced.attempted+untraced.attempted+profile.attempted+pa,
		traced.failed+untraced.failed+profile.failed+pf, ctx), nil
}
