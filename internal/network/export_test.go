package network

// FreeWormCaps reports how many worms are on n's free list and the
// largest held and deliver capacities among them.
func FreeWormCaps(n *Network) (worms, held, deliver int) {
	for _, w := range n.freeWorms {
		held, deliver = max(held, cap(w.held)), max(deliver, cap(w.deliver))
	}
	return len(n.freeWorms), held, deliver
}

// WormInline is the inline capacity of a worm's per-hop slices.
const WormInline = wormInline
