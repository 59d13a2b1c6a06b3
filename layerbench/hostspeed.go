package main

import (
	"fmt"
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's speed drifts. On a 2-vCPU Xeon VM shared with other
// tenants, one fixed op's CPU time swung by half within ten minutes
// while the hypervisor took no time away, so no clock steadies a raw
// timing to within the benchmark's bounds. Each end-to-end run
// therefore also times a fixed reference kernel, defined here and
// independent of the code under test, on the thread that runs the ops,
// between ops, every refEvery; and it scales its timings to a host that
// runs the kernel in refNominalMs (see README.md).
const (
	// refEntries is the size of the walk's table: 32 MiB of uint32,
	// past the caches, so the walk waits on memory as the simulator's
	// pointer-heavy event loop does.
	refEntries = 1 << 23
	refBytes   = refEntries * 4
	refSteps   = 100_000    // dependent loads in one walk
	refMixes   = 10_000_000 // SplitMix64 rounds: the arithmetic half
	// refNominalMs is about what the kernel took on that VM in a quiet
	// spell; it only sets the scale of the reported timings.
	refNominalMs = 32.0
	refEvery     = time.Second
	// clockThreadCPUTime is CLOCK_THREAD_CPUTIME_ID.
	clockThreadCPUTime = 3
)

// fillRefTable makes t one cycle through all its entries, in the order
// of a full-period linear congruential generator (odd increment,
// multiplier ≡ 1 mod 4), so no hardware prefetcher can guess the next
// address.
func fillRefTable(t []uint32) {
	for j := range t {
		t[j] = uint32((uint64(j)*1664525 + 1013904223) % uint64(len(t)))
	}
}

// refKernel is the reference work: half arithmetic, half a walk of
// dependent loads through t, in about equal shares of time. The pairing
// tracked the simulator's own slow and fast spells to within a few
// percent when timed beside it (README.md, Steadiness).
func refKernel(t []uint32) uint64 {
	var acc uint64
	for i := 0; i < refMixes; i++ {
		acc += mix(uint64(i), i)
	}
	j := uint32(0)
	for i := 0; i < refSteps; i++ {
		j = t[j]
	}
	return acc + uint64(j)
}

// hostSpeed times the reference kernel over a run. Its table lives
// outside the Go heap, so it never changes when the program's garbage
// collector runs; it stays resident for the whole run, so it adds
// exactly refBytes to the process's peak RSS.
type hostSpeed struct {
	table []uint32
	ms    []float64
	sum   uint64 // keeps the kernel's result live
	last  time.Time
}

func newHostSpeed() (*hostSpeed, error) {
	b, err := syscall.Mmap(-1, 0, refBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_PRIVATE|syscall.MAP_ANON)
	if err != nil {
		return nil, fmt.Errorf("mapping the reference table: %w", err)
	}
	h := &hostSpeed{table: unsafe.Slice((*uint32)(unsafe.Pointer(&b[0])), refEntries)}
	fillRefTable(h.table)
	h.sum = refKernel(h.table) // untimed: first touch of code and table
	return h, nil
}

// sample times the kernel once on this goroutine's thread's CPU clock,
// which no other goroutine (such as a GC worker) is charged to.
func (h *hostSpeed) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	u := threadCPU()
	h.sum += refKernel(h.table)
	h.ms = append(h.ms, float64(threadCPU()-u)/1e6)
	h.last = time.Now()
}

// due samples when refEvery has passed since the last sample.
func (h *hostSpeed) due() {
	if time.Since(h.last) >= refEvery {
		h.sample()
	}
}

// factor is how much slower than nominal the host ran the kernel, from
// its times in ms: their median over refNominalMs.
func factor(ms []float64) float64 { return median(ms) / refNominalMs }

func threadCPU() time.Duration {
	var ts syscall.Timespec
	if _, _, e := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); e != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_THREAD_CPUTIME_ID): %v", e))
	}
	return time.Duration(ts.Nano())
}
