package sim

import "testing"

// The wavefront contract extends the calendar contract the
// heap-vs-ladder differentials pin: the ladder's popWavefront must
// yield exactly the events repeated heap pops would, in exactly the
// same (due, seq) order. These drivers reuse the differential regimes
// from ladder_test.go with a wavefront drain on the ladder side.

// drainWavefrontMatches drains `batched` via popWavefront and `serial`
// via single pops, asserting the flattened batch stream is identical
// to the pop stream and every batch holds exactly one instant.
func drainWavefrontMatches(t *testing.T, batched *ladderQueue, serial *eventQueue) {
	t.Helper()
	var buf []event
	for serial.Len() > 0 {
		wf := batched.popWavefront(buf[:0])
		if len(wf) == 0 {
			t.Fatalf("popWavefront returned empty with %d events pending", batched.n)
		}
		for i, e := range wf {
			if e.due != wf[0].due {
				t.Fatalf("batch spans instants: event %d due %v, batch due %v", i, e.due, wf[0].due)
			}
			se := serial.pop()
			if se.due != e.due || se.seq != e.seq {
				t.Fatalf("stream mismatch: wavefront (due=%v seq=%d), pop (due=%v seq=%d)",
					e.due, e.seq, se.due, se.seq)
			}
		}
		buf = wf
	}
	if batched.n != 0 {
		t.Fatalf("batched calendar retains %d events after serial drained", batched.n)
	}
}

// TestWavefrontMatchesPopRegimes runs the ladder-vs-heap regime
// schedules with a wavefront drain on the ladder and a plain pop drain
// on the heap oracle.
func TestWavefrontMatchesPopRegimes(t *testing.T) {
	regimes := []struct {
		name  string
		seed  uint64
		delta func(x *xorshift64) Time
		burst int
	}{
		{"uniform", 1, func(x *xorshift64) Time { return x.float01() * 100 }, 0},
		{"heavy-ties", 2, func(x *xorshift64) Time { return Time(x.next() % 8) }, 0},
		{"same-instant-bursts", 3, func(x *xorshift64) Time { return 0.003 * Time(1+x.next()%4) }, 24},
		{"hop-timing", 4, func(x *xorshift64) Time {
			d := []Time{0.003, 0.003, 0.003, 0.192, 1.5, 3.0}
			return d[x.next()%uint64(len(d))]
		}, 12},
		{"zero-delta", 7, func(x *xorshift64) Time { return Time(x.next()%3) * 0.5 }, 4},
	}
	for _, rg := range regimes {
		t.Run("ladder-wavefront-vs-heap-pop/"+rg.name, func(t *testing.T) {
			rng := xorshift64(rg.seed)
			batched, serial := newLadderQueue(), &eventQueue{}
			now := Time(0)
			var seq uint64
			var buf []event
			push := func(due Time) {
				batched.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
				serial.push(event{due: due, seq: seq, fn: func(*Simulator, any) {}})
				seq++
			}
			for step := 0; step < 30000; step++ {
				switch {
				case rng.next()%10 < 4 && serial.Len() > 0:
					// Interleave batch drains with pushes, as the
					// simulator's drain loop does.
					wf := batched.popWavefront(buf[:0])
					for _, e := range wf {
						se := serial.pop()
						if se.due != e.due || se.seq != e.seq {
							t.Fatalf("step %d: wavefront (due=%v seq=%d), pop (due=%v seq=%d)",
								step, e.due, e.seq, se.due, se.seq)
						}
						now = e.due
					}
					buf = wf
				default:
					due := now + rg.delta(&rng)
					push(due)
					if rg.burst > 0 {
						for k := uint64(0); k < rng.next()%uint64(rg.burst+1); k++ {
							push(due)
						}
					}
				}
			}
			drainWavefrontMatches(t, batched, serial)
		})
	}
}
