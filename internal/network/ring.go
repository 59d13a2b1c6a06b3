package network

// wormRing is a FIFO wait queue backed by a power-of-two ring buffer.
//
// The seed kept wait queues as plain slices popped with queue[1:],
// which retains every popped worm in the backing array's dead head
// until an append happens to reallocate — under sustained contention
// a busy channel's queue pinned an unbounded number of drained worms.
// The ring nils each slot as it pops and reuses its storage forever,
// so a queue's footprint is bounded by its high-water mark and
// push/pop never allocate in steady state.
type wormRing struct {
	buf  []*worm
	head int
	n    int
}

// ringMinCap is the capacity a ring starts with on its first push.
const ringMinCap = 8

// Len returns the number of queued worms.
func (r *wormRing) Len() int { return r.n }

// Cap returns the ring's current storage capacity.
func (r *wormRing) Cap() int { return len(r.buf) }

// at returns the i-th queued worm, 0 being the head.
func (r *wormRing) at(i int) *worm { return r.buf[(r.head+i)&(len(r.buf)-1)] }

// Push appends w at the tail.
func (r *wormRing) Push(w *worm) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = w
	r.n++
}

// Pop removes and returns the head, clearing its slot so the ring
// never pins a drained worm.
func (r *wormRing) Pop() *worm {
	if r.n == 0 {
		panic("network: pop from empty wait queue")
	}
	w := r.buf[r.head]
	r.buf[r.head] = nil
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return w
}

// grow doubles the storage (or allocates the initial buffer) and
// unrolls the occupied window to the front.
func (r *wormRing) grow() {
	newCap := 2 * len(r.buf)
	if newCap == 0 {
		newCap = ringMinCap
	}
	buf := make([]*worm, newCap)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf, r.head = buf, 0
}
