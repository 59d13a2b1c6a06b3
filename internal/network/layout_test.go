package network

import (
	"testing"
	"unsafe"
)

// TestSlotLayout pins the per-lane and per-node state at one 32-byte
// lane slot and one 16-byte port slot: a field added to either grows
// every network (a 2^20-node mesh has 6.3 million lanes). It also pins
// a worm's per-hop record at 16 bytes and caps the worm's whole
// footprint, the struct with its inline per-hop store: a network keeps
// a run's worms for the next, and only paths longer than the inline
// store take spill buffers on top.
func TestSlotLayout(t *testing.T) {
	if got := unsafe.Sizeof(channelState{}); got != 32 {
		t.Errorf("channelState is %d bytes, want 32", got)
	}
	if got := unsafe.Sizeof(portState{}); got != 16 {
		t.Errorf("portState is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(lanePage{}); got != 16<<10 {
		t.Errorf("lanePage is %d bytes, want 16 KiB", got)
	}
	if got := unsafe.Sizeof(hold{}); got != 16 {
		t.Errorf("hold is %d bytes, want 16", got)
	}
	if got := unsafe.Sizeof(worm{}); got > 288 {
		t.Errorf("worm with its inline store is %d bytes, want at most 288", got)
	}
}
