// Command wormsimd is the simulation service daemon: a long-running
// HTTP server that answers scenario run requests from a deterministic
// result cache, deduplicates identical concurrent misses, and sheds
// load explicitly when its admission queue fills (429 + Retry-After).
//
//	wormsimd serve -addr :8080                # start the daemon
//	wormsimd serve -queue 128 -cache 256      # bigger admission + 256 MiB cache
//	wormsimd loadgen -addr http://host:8080 \
//	    -scenario fig1 -mesh 4x4x4 -requests 500 -o BENCH_pr8.json
//
// The serve mode drains gracefully on SIGINT/SIGTERM: in-flight HTTP
// requests and every already-admitted simulation complete before the
// process exits. The loadgen mode is the measurement client behind
// BENCH_pr8.json: it drives a cold miss phase (distinct seeds) and a
// hot hit phase (one spec hammered concurrently) and writes latency
// percentiles and sustained request rate as JSON.
//
// Endpoints: POST /v1/run (RunRequest JSON), GET /v1/scenarios,
// GET /healthz, GET /metrics (Prometheus text). See internal/service.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/service"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "serve":
		serve(os.Args[2:])
	case "loadgen":
		loadgen(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  wormsimd serve   [-addr :8080] [-procs N] [-queue N] [-cache MiB]
  wormsimd loadgen [-addr URL] [-scenario NAME] [-mesh AxBxC] [-reps N] [-seed S]
                   [-format csv|json|text] [-concurrency N] [-requests N] [-misses N] [-o FILE]`)
	os.Exit(2)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wormsimd:", err)
	os.Exit(1)
}

func serve(args []string) {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	var (
		addr  = fs.String("addr", ":8080", "listen address")
		procs = fs.Int("procs", 0, "simulation workers (0 = all cores)")
		queue = fs.Int("queue", 64, "admission queue bound: misses beyond running+queued are shed with 429")
		cache = fs.Int("cache", 64, "result cache budget in MiB of rendered bodies (LRU; oversized bodies bypass)")
	)
	fs.Parse(args)

	s := service.New(service.Config{Procs: *procs, QueueCap: *queue, CacheBytes: int64(*cache) << 20})
	httpSrv := &http.Server{Addr: *addr, Handler: s.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		log.Printf("wormsimd: shutdown signal, draining")
		// Stop accepting, let in-flight HTTP requests finish (each may
		// be waiting on a simulation), then drain the executor.
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
		defer cancel()
		if err := httpSrv.Shutdown(shutdownCtx); err != nil {
			log.Printf("wormsimd: shutdown: %v", err)
		}
	}()

	log.Printf("wormsimd: serving on %s (queue=%d cache=%d)", *addr, *queue, *cache)
	if err := httpSrv.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	s.Close() // drain admitted simulations
	c := s.Counts()
	log.Printf("wormsimd: drained; served %d requests (%d hits, %d dedup, %d misses, %d shed)",
		c.Requests, c.Hits, c.Deduped, c.Misses, c.Rejected)
}

// phaseReport is one loadgen phase's measurement in BENCH_pr8.json.
type phaseReport struct {
	Requests    int     `json:"requests"`
	Concurrency int     `json:"concurrency"`
	Errors      int     `json:"errors"`
	Rejected    int     `json:"rejected_429"`
	Seconds     float64 `json:"wall_seconds"`
	RPS         float64 `json:"requests_per_sec"`
	Latency     struct {
		P50 float64 `json:"p50_seconds"`
		P90 float64 `json:"p90_seconds"`
		P99 float64 `json:"p99_seconds"`
		Max float64 `json:"max_seconds"`
	} `json:"latency"`
}

func loadgen(args []string) {
	fs := flag.NewFlagSet("loadgen", flag.ExitOnError)
	var (
		addr        = fs.String("addr", "http://127.0.0.1:8080", "daemon base URL")
		scenarioN   = fs.String("scenario", "fig1", "registry scenario to request")
		meshSpec    = fs.String("mesh", "4x4x4", "topology override sent with every request")
		reps        = fs.Int("reps", 2, "replication override")
		seed        = fs.Uint64("seed", 2005, "seed of the hit-phase request; miss phase uses seed+1..seed+misses")
		format      = fs.String("format", "csv", "response format: csv, json or text")
		concurrency = fs.Int("concurrency", 8, "concurrent client connections")
		requests    = fs.Int("requests", 500, "hit-phase request count (one spec, hammered)")
		misses      = fs.Int("misses", 16, "miss-phase request count (distinct seeds)")
		out         = fs.String("o", "", "write the JSON report here (default stdout)")
	)
	fs.Parse(args)

	mesh, err := parseDims(*meshSpec)
	if err != nil {
		fatal(err)
	}
	reqFor := func(seed uint64) []byte {
		b, err := json.Marshal(&service.RunRequest{
			Scenario: *scenarioN, Mesh: mesh, Reps: *reps, Seed: &seed, Format: *format,
		})
		if err != nil {
			fatal(err)
		}
		return b
	}

	// Miss phase: every request a distinct seed, so each one pays for
	// a real simulation (modulo shed-and-retry under backpressure).
	missBodies := make([][]byte, *misses)
	for i := range missBodies {
		missBodies[i] = reqFor(*seed + 1 + uint64(i))
	}
	missReport := drive(*addr, missBodies, *concurrency)

	// Hit phase: warm the cache once, then hammer the identical
	// request — every timed request is a cache hit.
	warm := reqFor(*seed)
	if _, _, err := post(*addr, warm); err != nil {
		fatal(fmt.Errorf("hit-phase warmup: %w", err))
	}
	hitBodies := make([][]byte, *requests)
	for i := range hitBodies {
		hitBodies[i] = warm
	}
	hitReport := drive(*addr, hitBodies, *concurrency)

	report := map[string]any{
		"schema":     "wormsim-service-bench/v1",
		"recorded":   time.Now().UTC().Format(time.RFC3339),
		"go_version": runtime.Version(),
		"request": map[string]any{
			"scenario": *scenarioN, "mesh": mesh, "reps": *reps,
			"seed": *seed, "format": *format,
		},
		"phases": map[string]any{
			"service": map[string]any{
				"hit":  hitReport,
				"miss": missReport,
			},
		},
	}
	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(report); err != nil {
		fatal(err)
	}
	if hitReport.Latency.P50 >= 0.001 {
		fatal(fmt.Errorf("cache-hit p50 = %.6fs, want < 1ms", hitReport.Latency.P50))
	}
}

// client keeps one warm connection per loadgen worker — the default
// transport idles only 2 per host, and reconnect latency would swamp
// the microsecond hit path being measured.
var client = &http.Client{Transport: &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 256,
}}

// post issues one run request and returns the HTTP status plus
// whether it was shed (429).
func post(addr string, body []byte) (status int, shed bool, err error) {
	resp, err := client.Post(addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body)
	if resp.StatusCode == http.StatusTooManyRequests {
		return resp.StatusCode, true, nil
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, false, fmt.Errorf("HTTP %s", resp.Status)
	}
	return resp.StatusCode, false, nil
}

// drive issues every body over `concurrency` workers, measuring
// per-request wall latency. 429 rejections back off briefly and retry
// the same request — the report counts them separately.
func drive(addr string, bodies [][]byte, concurrency int) phaseReport {
	if concurrency < 1 {
		concurrency = 1
	}
	var (
		mu        sync.Mutex
		latencies []float64
		errs      int
		rejected  int
	)
	next := make(chan []byte)
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range next {
				for {
					t0 := time.Now()
					_, shed, err := post(addr, body)
					lat := time.Since(t0).Seconds()
					mu.Lock()
					switch {
					case err != nil:
						errs++
					case shed:
						rejected++
					default:
						latencies = append(latencies, lat)
					}
					mu.Unlock()
					if !shed {
						break
					}
					time.Sleep(50 * time.Millisecond)
				}
			}
		}()
	}
	for _, b := range bodies {
		next <- b
	}
	close(next)
	wg.Wait()
	wall := time.Since(start).Seconds()

	r := phaseReport{
		Requests:    len(bodies),
		Concurrency: concurrency,
		Errors:      errs,
		Rejected:    rejected,
		Seconds:     wall,
	}
	if wall > 0 {
		r.RPS = float64(len(latencies)) / wall
	}
	sort.Float64s(latencies)
	if n := len(latencies); n > 0 {
		q := func(p float64) float64 {
			i := int(p * float64(n))
			if i >= n {
				i = n - 1
			}
			return latencies[i]
		}
		r.Latency.P50, r.Latency.P90, r.Latency.P99 = q(0.50), q(0.90), q(0.99)
		r.Latency.Max = latencies[n-1]
	}
	return r
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
