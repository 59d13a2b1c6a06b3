package main

import (
	"testing"
	"time"
)

func ramp(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestTailAtFixedPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want tail
	}{
		{20000, 99.9, tail{Percentile: 99.9, N: 20000, Beyond: 20, Value: 19980}},
		{10000, 99.9, tail{Percentile: 99.9, N: 10000, Beyond: 10, Value: 9990}},
		{1000, 95, tail{Percentile: 95, N: 1000, Beyond: 50, Value: 950}},
		{200, 95, tail{Percentile: 95, N: 200, Beyond: 10, Value: 190}},
		{150, 90, tail{Percentile: 90, N: 150, Beyond: 15, Value: 135}},
		{100, 90, tail{Percentile: 90, N: 100, Beyond: 10, Value: 90}},
	} {
		got, err := tailAt(ramp(c.n), c.p)
		if err != nil || got != c.want {
			t.Errorf("n=%d p%v: got %+v, %v; want %+v", c.n, c.p, got, err, c.want)
		}
	}
	// Throughput never moves the percentile: with fewer than ten
	// samples beyond it the run is refused, not read at a lower rung.
	for _, c := range []struct {
		n int
		p float64
	}{{9999, 99.9}, {199, 95}, {99, 90}, {5, 90}, {0, 90}} {
		if got, err := tailAt(ramp(c.n), c.p); err == nil {
			t.Errorf("n=%d p%v: got %+v, want an error", c.n, c.p, got)
		}
	}
}

func TestMinOpsLeavesTenBeyond(t *testing.T) {
	for p, want := range map[float64]int{90: 100, 95: 200, 99.9: 10000} {
		n := minOps(p)
		if n != want {
			t.Errorf("minOps(%v) = %d, want %d", p, n, want)
		}
		if _, err := tailAt(ramp(n), p); err != nil {
			t.Errorf("p%v at minOps: %v", p, err)
		}
		if _, err := tailAt(ramp(n-1), p); err == nil {
			t.Errorf("p%v one below minOps: no error", p)
		}
	}
	for _, w := range workloadNames {
		if _, ok := tailPercentile[w]; !ok {
			t.Errorf("workload %s has no tail percentile", w)
		}
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{5, 1, 3}, 3}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Errorf("median reordered its input: %v", xs)
	}
}

func TestClosedLoopReachesMinOps(t *testing.T) {
	l := closedLoop(time.Millisecond, 25, 7, func(i int) error {
		time.Sleep(time.Millisecond)
		return nil
	}, nil)
	if l.attempted < 25 || len(l.lat) != l.attempted || l.failed != 0 {
		t.Fatalf("attempted %d ops with %d latencies, %d failed; want at least 25", l.attempted, len(l.lat), l.failed)
	}
}

// TestClosedLoopTimesOnCPUClock checks that op latency is read on the
// process CPU clock: an op that sleeps costs next to nothing, one that
// computes costs about as long as it computes.
func TestClosedLoopTimesOnCPUClock(t *testing.T) {
	const busy = 20 * time.Millisecond
	sleep := closedLoop(0, 3, 0, func(int) error {
		time.Sleep(busy)
		return nil
	}, nil)
	spin := closedLoop(0, 3, 0, func(int) error {
		for start := time.Now(); time.Since(start) < busy; {
		}
		return nil
	}, nil)
	if m := median(sleep.lat); m > 5 {
		t.Errorf("sleeping %v read as %.2f CPU ms", busy, m)
	}
	if m := median(spin.lat); m < 5 {
		t.Errorf("computing for %v read as %.2f CPU ms", busy, m)
	}
	if sleep.wall < 3*busy || sleep.cpu > sleep.wall/2 {
		t.Errorf("sleeping loop: %v wall, %v CPU", sleep.wall, sleep.cpu)
	}
}

// TestRefTableIsOneCycle checks that the reference walk visits every
// entry of its table before it returns to the start, so no walk can
// settle into a short loop that fits in a cache.
func TestRefTableIsOneCycle(t *testing.T) {
	tab := make([]uint32, refEntries)
	fillRefTable(tab)
	j, n := tab[0], 1
	for ; j != 0 && n <= refEntries; n++ {
		j = tab[j]
	}
	if n != refEntries {
		t.Errorf("the walk returned to 0 after %d steps, want %d", n, refEntries)
	}
}
