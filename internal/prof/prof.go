// Package prof backs the CLIs' -cpuprofile/-memprofile flags with
// the standard runtime/pprof collectors, so every command exposes
// profiling the same way `go test` does:
//
//	sweep -what fig2 -cpuprofile cpu.out
//	go tool pprof cpu.out
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins a CPU profile at cpuPath and schedules a heap profile
// at memPath; either may be empty to skip it. The returned stop
// function ends the CPU profile and writes the heap profile — call it
// exactly once, on the way out, AFTER the workload (a deferred call
// in main is the intended shape). Errors writing the heap profile at
// stop time are reported on stderr rather than returned: by then the
// command's real work has already succeeded.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "prof: closing CPU profile:", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				fmt.Fprintln(os.Stderr, "prof:", err)
				return
			}
			// Up-to-date allocation accounting, as `go test -memprofile`
			// arranges before its snapshot.
			runtime.GC()
			if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "prof: writing heap profile:", err)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "prof: closing heap profile:", err)
			}
		}
	}, nil
}
