// Benchmarks regenerating every table and figure of the paper's
// evaluation (one benchmark per artifact, sub-benchmarks per series
// point), plus ablation benches for the design choices DESIGN.md
// calls out. Custom metrics carry the scientific outputs:
// latency_µs, cv and improvement_% — ns/op measures simulator speed,
// not the paper's quantities.
//
// Run everything:  go test -bench=. -benchmem
// One artifact:    go test -bench=BenchmarkFig1 -benchtime=1x
package wormsim_test

import (
	"fmt"
	"testing"

	"repro"
)

// fig1Sizes are the paper's Fig. 1 meshes (64–4096 nodes).
var fig1Sizes = [][]int{{4, 4, 4}, {8, 8, 8}, {10, 10, 10}, {16, 16, 16}}

// fig2Sizes are the paper's Fig. 2 / Tables 1–2 meshes (64–1024).
var fig2Sizes = [][]int{{4, 4, 4}, {4, 4, 16}, {8, 8, 8}, {8, 8, 16}}

// benchSingle measures single-source broadcast latency for one
// algorithm on one mesh, reporting the scientific output as a metric.
func benchSingle(b *testing.B, dims []int, algo wormsim.Algorithm, length int, ts float64) {
	m := wormsim.NewMesh(dims...)
	cfg := wormsim.DefaultConfig()
	cfg.Ts = ts
	var last float64
	for i := 0; i < b.N; i++ {
		src := wormsim.NodeID(i % m.Nodes())
		r, err := wormsim.RunBroadcast(m, algo, src, cfg, length)
		if err != nil {
			b.Fatal(err)
		}
		last = r.Latency()
	}
	b.ReportMetric(last, "latency_µs")
}

// BenchmarkFig1LatencyVsSize regenerates Fig. 1: broadcast latency of
// RD, EDN, DB and AB across 64–4096 node meshes (L=100, Ts=1.5 µs).
func BenchmarkFig1LatencyVsSize(b *testing.B) {
	for _, dims := range fig1Sizes {
		for _, algo := range wormsim.Algorithms() {
			m := wormsim.NewMesh(dims...)
			b.Run(fmt.Sprintf("%s/N=%d", algo.Name(), m.Nodes()), func(b *testing.B) {
				benchSingle(b, dims, algo, 100, 1.5)
			})
		}
	}
}

// BenchmarkFig1StartupLatency regenerates the §3.1 sensitivity sweep:
// the same experiment at Ts=0.15 µs.
func BenchmarkFig1StartupLatency(b *testing.B) {
	for _, dims := range fig1Sizes {
		for _, algo := range wormsim.Algorithms() {
			m := wormsim.NewMesh(dims...)
			b.Run(fmt.Sprintf("%s/N=%d", algo.Name(), m.Nodes()), func(b *testing.B) {
				benchSingle(b, dims, algo, 100, 0.15)
			})
		}
	}
}

// BenchmarkFig2CoefficientOfVariation regenerates Fig. 2: the
// arrival-time coefficient of variation under overlapping broadcasts
// (L=64 flits, 5 µs mean inter-arrival).
func BenchmarkFig2CoefficientOfVariation(b *testing.B) {
	for _, dims := range fig2Sizes {
		for _, algo := range wormsim.Algorithms() {
			m := wormsim.NewMesh(dims...)
			b.Run(fmt.Sprintf("%s/N=%d", algo.Name(), m.Nodes()), func(b *testing.B) {
				var cv float64
				for i := 0; i < b.N; i++ {
					st, err := wormsim.ContendedCVStudy(m, algo, wormsim.ContendedConfig{
						Net:          wormsim.DefaultConfig(),
						Length:       64,
						Broadcasts:   10,
						Interarrival: 5,
						Seed:         uint64(i + 1),
					})
					if err != nil {
						b.Fatal(err)
					}
					cv = st.CV.Mean()
				}
				b.ReportMetric(cv, "cv")
			})
		}
	}
}

// BenchmarkFig2Saturation is the perf-trajectory workload: the Fig. 2
// study pushed past its knee (40 overlapping 64-flit broadcasts, 2 µs
// mean inter-arrival) on the 8×8×8 mesh under all four algorithms.
// Channel contention, wait-queue churn and worm turnover dominate, so
// allocs/op and ns/op here are the numbers the committed BENCH_*.json
// artifacts recorded across PRs. events/sec reports the raw
// discrete-event kernel throughput through the same workload. Every
// iteration plans its broadcasts afresh (there is no plan cache) and
// runs on the network the previous iteration released.
func BenchmarkFig2Saturation(b *testing.B) {
	m := wormsim.NewMesh(wormsim.SaturationDims()...)
	for _, algo := range wormsim.Algorithms() {
		b.Run(algo.Name(), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				st, err := wormsim.ContendedCVStudy(m, algo, wormsim.SaturationConfig(2005))
				if err != nil {
					b.Fatal(err)
				}
				events = st.Events
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)*float64(b.N)/s, "events/sec")
			}
		})
	}
}

// BenchmarkFig2SaturationTorus runs the saturation workload on the
// wraparound twin of the bench mesh with two dateline VCs — the torus
// bench phase of BENCH_pr5.json recorded the same thing.
func BenchmarkFig2SaturationTorus(b *testing.B) {
	m := wormsim.NewTorus(wormsim.SaturationDims()...)
	for _, algo := range wormsim.Algorithms() {
		b.Run(algo.Name(), func(b *testing.B) {
			cfg := wormsim.SaturationConfig(2005)
			cfg.Net.VCs = 2
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				st, err := wormsim.ContendedCVStudy(m, algo, cfg)
				if err != nil {
					b.Fatal(err)
				}
				events = st.Events
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)*float64(b.N)/s, "events/sec")
			}
		})
	}
}

// benchImprovement measures the paper's Tables 1/2 improvement metric
// of a proposed algorithm over a baseline at one mesh size.
func benchImprovement(b *testing.B, dims []int, proposed, baseline wormsim.Algorithm) {
	m := wormsim.NewMesh(dims...)
	study := func(algo wormsim.Algorithm, seed uint64) float64 {
		st, err := wormsim.ContendedCVStudy(m, algo, wormsim.ContendedConfig{
			Net:          wormsim.DefaultConfig(),
			Length:       64,
			Broadcasts:   10,
			Interarrival: 5,
			Seed:         seed,
		})
		if err != nil {
			b.Fatal(err)
		}
		return st.CV.Mean()
	}
	var imp float64
	for i := 0; i < b.N; i++ {
		ours := study(proposed, uint64(i+1))
		base := study(baseline, uint64(i+1))
		if ours > 0 {
			imp = 100 * (base - ours) / ours
		}
	}
	b.ReportMetric(imp, "improvement_%")
}

// BenchmarkTable1DBImprovement regenerates Table 1: DB's CV
// improvement over RD and EDN per mesh size.
func BenchmarkTable1DBImprovement(b *testing.B) {
	for _, dims := range fig2Sizes {
		m := wormsim.NewMesh(dims...)
		for _, baseline := range []wormsim.Algorithm{wormsim.NewRD(), wormsim.NewEDN()} {
			b.Run(fmt.Sprintf("vs%s/N=%d", baseline.Name(), m.Nodes()), func(b *testing.B) {
				benchImprovement(b, dims, wormsim.NewDB(), baseline)
			})
		}
	}
}

// BenchmarkTable2ABImprovement regenerates Table 2: AB's CV
// improvement over RD and EDN per mesh size.
func BenchmarkTable2ABImprovement(b *testing.B) {
	for _, dims := range fig2Sizes {
		m := wormsim.NewMesh(dims...)
		for _, baseline := range []wormsim.Algorithm{wormsim.NewRD(), wormsim.NewEDN()} {
			b.Run(fmt.Sprintf("vs%s/N=%d", baseline.Name(), m.Nodes()), func(b *testing.B) {
				benchImprovement(b, dims, wormsim.NewAB(), baseline)
			})
		}
	}
}

// benchMixed measures the §3.3 mixed-traffic mean latency at one
// load point (the paper's axis value, scaled as in Fig34Config).
func benchMixed(b *testing.B, dims []int, algo wormsim.Algorithm, paperLoad float64) {
	m := wormsim.NewMesh(dims...)
	var lat float64
	for i := 0; i < b.N; i++ {
		cfg := wormsim.MixedConfig{
			Rate:              paperLoad * 320 / 1000,
			BroadcastFraction: 0.10,
			Length:            32,
			Algorithm:         algo,
			Seed:              uint64(i + 1),
			BatchSize:         40,
			Batches:           6,
			Warmup:            1,
		}
		if algo.Name() == "AB" {
			wf := wormsim.NewWestFirst(m)
			cfg.Unicast, cfg.Adaptive = wf, wf
		}
		res, err := wormsim.RunMixed(m, cfg)
		if err != nil {
			b.Fatal(err)
		}
		lat = res.MeanLatency
	}
	b.ReportMetric(lat, "latency_µs")
}

// BenchmarkFig3MixedTraffic8x8x8 regenerates Fig. 3: mean latency vs
// offered load on the 8×8×8 mesh under 90/10 unicast/broadcast
// traffic.
func BenchmarkFig3MixedTraffic8x8x8(b *testing.B) {
	for _, load := range []float64{0.005, 0.02, 0.05} {
		for _, algo := range wormsim.Algorithms() {
			b.Run(fmt.Sprintf("%s/load=%g", algo.Name(), load), func(b *testing.B) {
				benchMixed(b, []int{8, 8, 8}, algo, load)
			})
		}
	}
}

// BenchmarkFig4MixedTraffic16x16x8 regenerates Fig. 4: the same sweep
// on the 16×16×8 mesh, where AB's longer third-step paths erode its
// advantage.
func BenchmarkFig4MixedTraffic16x16x8(b *testing.B) {
	for _, load := range []float64{0.005, 0.02, 0.05} {
		for _, algo := range wormsim.Algorithms() {
			b.Run(fmt.Sprintf("%s/load=%g", algo.Name(), load), func(b *testing.B) {
				benchMixed(b, []int{16, 16, 8}, algo, load)
			})
		}
	}
}

// BenchmarkAblationMessageLength sweeps the paper's stated message
// length range (32–2048 flits) for DB on 8×8×8 — the latency should
// grow by L·β while the step structure stays fixed.
func BenchmarkAblationMessageLength(b *testing.B) {
	for _, length := range []int{32, 128, 512, 2048} {
		b.Run(fmt.Sprintf("L=%d", length), func(b *testing.B) {
			benchSingle(b, []int{8, 8, 8}, wormsim.NewDB(), length, 1.5)
		})
	}
}

// BenchmarkAblationPortModel runs EDN with one and three ports: the
// three-port router is what lets its doubling phase fan out.
func BenchmarkAblationPortModel(b *testing.B) {
	m := wormsim.NewMesh(8, 8, 8)
	for _, ports := range []int{1, 3} {
		b.Run(fmt.Sprintf("ports=%d", ports), func(b *testing.B) {
			cfg := wormsim.DefaultConfig()
			cfg.Ports = ports
			var lat float64
			for i := 0; i < b.N; i++ {
				plan, err := wormsim.NewEDN().Plan(m, wormsim.NodeID(i%m.Nodes()))
				if err != nil {
					b.Fatal(err)
				}
				s := wormsim.NewSimulator()
				net, err := wormsim.NewNetwork(s, m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				r, err := wormsim.ExecuteBroadcast(net, plan, wormsim.ExecOptions{Length: 100})
				if err != nil {
					b.Fatal(err)
				}
				s.Run()
				if !r.Done {
					b.Fatal("broadcast incomplete")
				}
				lat = r.Latency()
			}
			b.ReportMetric(lat, "latency_µs")
		})
	}
}

// BenchmarkAblationHopDelay varies the header routing delay: the
// study's conclusions should be insensitive to it because Ts and L·β
// dominate (DESIGN.md §5).
func BenchmarkAblationHopDelay(b *testing.B) {
	for _, hop := range []float64{0.003, 0.03, 0.3} {
		b.Run(fmt.Sprintf("hop=%g", hop), func(b *testing.B) {
			m := wormsim.NewMesh(8, 8, 8)
			cfg := wormsim.DefaultConfig()
			cfg.HopDelay = hop
			var lat float64
			for i := 0; i < b.N; i++ {
				r, err := wormsim.RunBroadcast(m, wormsim.NewAB(), wormsim.NodeID(i%m.Nodes()), cfg, 100)
				if err != nil {
					b.Fatal(err)
				}
				lat = r.Latency()
			}
			b.ReportMetric(lat, "latency_µs")
		})
	}
}

// BenchmarkPlanConstruction measures pure planning cost (no
// simulation) for each algorithm on the largest paper mesh.
func BenchmarkPlanConstruction(b *testing.B) {
	m := wormsim.NewMesh(16, 16, 16)
	for _, algo := range wormsim.Algorithms() {
		b.Run(algo.Name(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := algo.Plan(m, wormsim.NodeID(i%m.Nodes())); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimulatorCore measures the raw event-processing rate of
// the discrete-event kernel through a broadcast workload.
func BenchmarkSimulatorCore(b *testing.B) {
	m := wormsim.NewMesh(8, 8, 8)
	for i := 0; i < b.N; i++ {
		if _, err := wormsim.RunBroadcast(m, wormsim.NewRD(), 0, wormsim.DefaultConfig(), 64); err != nil {
			b.Fatal(err)
		}
	}
}
