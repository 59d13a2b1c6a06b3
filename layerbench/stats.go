package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must rank above the tail percentile
// for the tail to be more than one or two unlucky ops.
const minBeyond = 10

// tailPercentile is the percentile op_ms_tail reads on each workload:
// the highest of p99.9, p99, p95 and p90 that left at least minBeyond
// samples beyond it in every run made while the benchmark was built.
// It is fixed, so a change in throughput can never make two runs
// compare different percentiles.
var tailPercentile = map[string]float64{"saturation": 90, "fig1-large": 95, "service-mix": 99.9}

// tail is the op_ms_tail reading plus what it was computed from.
type tail struct {
	Percentile float64 `json:"percentile"`
	N          int     `json:"n"`
	Beyond     int     `json:"beyond"`
	Value      float64 `json:"value"`
}

// rankOf is the 1-based nearest rank of the p-th percentile of n
// samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps float error from pushing an exact rank such as
	// 99.9% of 20000 up by one.
	return max(int(math.Ceil(p*float64(n)/100-1e-9)), 1)
}

// minOps is the fewest samples that leave minBeyond of them ranked
// above the p-th percentile.
func minOps(p float64) int {
	n := minBeyond
	for n-rankOf(n, p) < minBeyond {
		n++
	}
	return n
}

// tailAt reads the p-th percentile of sorted. A run with fewer than
// minBeyond samples beyond it has no valid tail and is refused.
func tailAt(sorted []float64, p float64) (tail, error) {
	n := len(sorted)
	if n == 0 {
		return tail{}, fmt.Errorf("no samples for p%v", p)
	}
	k := rankOf(n, p)
	t := tail{Percentile: p, N: n, Beyond: n - k, Value: sorted[k-1]}
	if t.Beyond < minBeyond {
		return t, fmt.Errorf("only %d of %d samples beyond p%v, want %d: the run is too short to read its tail", t.Beyond, n, p, minBeyond)
	}
	return t, nil
}

// sortedCopy returns xs sorted, leaving xs as it is.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the median of xs without reordering it; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	h := len(s) / 2
	if len(s)%2 == 1 {
		return s[h]
	}
	return (s[h-1] + s[h]) / 2
}

// mix is SplitMix64 over (seed, i): the benchmark's one source of
// per-op randomness, so an op's input depends on nothing but the seed
// and the op index.
func mix(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
	z = (z ^ z>>27) * 0x94D049BB133111EB
	return z ^ z>>31
}
