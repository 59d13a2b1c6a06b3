package metrics

import "repro/internal/network"

// SaturationConfig returns the Fig. 2-style saturation-load workload
// the performance trajectory is benchmarked on: 64-flit broadcasts
// from random sources at a 2 µs mean inter-arrival — several
// broadcasts deep in flight on the paper's 8×8×8 mesh, so channel
// contention, wait-queue churn and worm turnover dominate, exactly
// the regime the hot-path optimisations target. The paper's §3.2
// replication count (40 experiments) is kept so one study is a
// representative unit of work.
//
// bench_test.go (BenchmarkFig2Saturation) and layerbench's saturation
// workload both run it, as the committed BENCH_*.json artifacts did,
// so go-test benchmarks and the end-to-end benchmark measure the same
// thing.
func SaturationConfig(seed uint64) ContendedConfig {
	return ContendedConfig{
		Net:          network.DefaultConfig(),
		Length:       64,
		Broadcasts:   40,
		Interarrival: 2,
		Seed:         seed,
	}
}

// SaturationDims is the mesh the saturation benchmark runs on.
func SaturationDims() []int { return []int{8, 8, 8} }

// SaturationInterarrivals is the injection-gap sweep (µs) of the
// "saturation" registry scenario: from a relaxed 8 µs gap down past
// the benchmark's 2 µs operating point into overload, so the latency
// curve traverses the exact regime the perf trajectory is measured
// in.
func SaturationInterarrivals() []float64 { return []float64{8, 4, 2, 1, 0.5} }
