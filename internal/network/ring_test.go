package network

import "testing"

// TestRingFIFOAcrossWrap pushes and pops in overlapping waves,
// so the ring's head and tail chase each other through every length
// from empty to five, and checks strict FIFO order.
func TestRingFIFOAcrossWrap(t *testing.T) {
	var tail *worm
	worms := make([]*worm, 40)
	for i := range worms {
		worms[i] = &worm{}
	}
	next, out := 0, 0
	for out < len(worms) {
		for next < len(worms) && next-out < 5 {
			qpush(&tail, worms[next])
			next++
		}
		if got := qpop(&tail); got != worms[out] {
			t.Fatalf("pop %d returned the wrong worm", out)
		}
		out++
	}
	if tail != nil {
		t.Fatal("queue not drained")
	}
}

// TestRingReleasesPoppedSlots pins the no-retention property: a popped
// worm links to no other worm, so a drained queue references nothing,
// unlike the seed's queue[1:] slices, which pinned every popped entry.
func TestRingReleasesPoppedSlots(t *testing.T) {
	var tail *worm
	ws := []*worm{{}, {}, {}}
	for _, w := range ws {
		qpush(&tail, w)
	}
	for range ws {
		if w := qpop(&tail); w.qnext != nil {
			t.Fatal("a popped worm still links into the queue")
		}
	}
	if tail != nil {
		t.Fatal("an emptied queue keeps its tail")
	}
}

func TestRingPopEmptyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("pop from an empty queue did not panic")
		}
	}()
	var tail *worm
	qpop(&tail)
}
