package service

// Service observability: lock-free counters and fixed-bucket latency
// histograms, rendered in the Prometheus text exposition format by
// hand — the format is plain text and the repo takes no dependencies,
// so a scraper (or curl | grep in CI) reads it directly.

import (
	"fmt"
	"io"
	"math"
	"sync/atomic"
)

// latencyBuckets are the histogram upper bounds in seconds. The low
// end resolves the hit path (tens of microseconds); the high end
// covers multi-minute simulation misses.
var latencyBuckets = [...]float64{
	0.000025, 0.00005, 0.0001, 0.00025, 0.0005,
	0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300,
}

// histogram is a fixed-bucket latency histogram safe for concurrent
// observation. sumMicros accumulates in integer microseconds so the
// hot path needs no float CAS loop.
type histogram struct {
	counts    [len(latencyBuckets) + 1]atomic.Uint64 // +1: the +Inf bucket
	sumMicros atomic.Uint64
	n         atomic.Uint64
}

// observe records one latency in seconds.
func (h *histogram) observe(seconds float64) {
	i := 0
	for i < len(latencyBuckets) && seconds > latencyBuckets[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sumMicros.Add(uint64(seconds * 1e6))
	h.n.Add(1)
}

// quantile returns the q-quantile estimate (bucket upper bound), or 0
// with no observations. Used by tests and the status endpoint, not by
// the exposition format (Prometheus computes quantiles server-side).
func (h *histogram) quantile(q float64) float64 {
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			if i < len(latencyBuckets) {
				return latencyBuckets[i]
			}
			return math.Inf(1)
		}
	}
	return math.Inf(1)
}

// writeProm renders the histogram under name in Prometheus text
// format.
func (h *histogram) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum uint64
	for i, le := range latencyBuckets {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, trimFloat(le), cum)
	}
	cum += h.counts[len(latencyBuckets)].Load()
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %g\n", name, float64(h.sumMicros.Load())/1e6)
	fmt.Fprintf(w, "%s_count %d\n", name, h.n.Load())
}

func trimFloat(f float64) string { return fmt.Sprintf("%g", f) }

// serviceMetrics aggregates every counter the service exposes.
type serviceMetrics struct {
	requests atomic.Uint64 // all /v1/run requests
	hits     atomic.Uint64 // served from cache
	deduped  atomic.Uint64 // coalesced onto an identical in-flight miss
	misses   atomic.Uint64 // simulations actually executed
	rejected atomic.Uint64 // 429 backpressure rejections
	failures atomic.Uint64 // requests answered 4xx/5xx (backpressure aside)
	panics   atomic.Uint64 // simulations that panicked and were recovered

	hitLatency  histogram // cache-hit request latency
	missLatency histogram // miss request latency (queue wait + simulation)
}

// writeProm renders every metric plus the caller-sampled gauges.
func (m *serviceMetrics) writeProm(w io.Writer, queueDepth, inflight, cacheLen int, cacheBytes int64) {
	counter := func(name, help string, v uint64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}
	gauge := func(name, help string, v int) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", name, help, name, name, v)
	}
	counter("wormsimd_requests_total", "run requests received", m.requests.Load())
	counter("wormsimd_cache_hits_total", "requests served from the result cache", m.hits.Load())
	counter("wormsimd_dedup_total", "requests coalesced onto an identical in-flight simulation", m.deduped.Load())
	counter("wormsimd_misses_total", "simulations executed", m.misses.Load())
	counter("wormsimd_rejected_total", "requests shed with 429 (admission queue full)", m.rejected.Load())
	counter("wormsimd_failures_total", "requests answered with an error", m.failures.Load())
	counter("wormsimd_panics_total", "simulations that panicked (answered 500)", m.panics.Load())
	gauge("wormsimd_queue_depth", "admitted simulations awaiting a worker", queueDepth)
	gauge("wormsimd_inflight", "simulations currently executing", inflight)
	gauge("wormsimd_cache_entries", "resident result-cache entries", cacheLen)
	gauge("wormsimd_cache_bytes", "resident result-cache body bytes", int(cacheBytes))
	m.hitLatency.writeProm(w, "wormsimd_hit_latency_seconds")
	m.missLatency.writeProm(w, "wormsimd_miss_latency_seconds")
}
