// Package prof wires the standard Go profilers behind three command
// line flags (-cpuprofile, -memprofile, -trace) so every binary in this
// repository exposes the same profiling surface. Start begins the
// requested captures; the returned stop function finishes them and must
// run exactly once, after the workload, before exit.
//
// The hooks exist for the performance loop the ROADMAP prescribes:
// profile the metropolis wave churn, fix the hot allocation, re-run the
// bench, commit the numbers.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
)

// Config names the output files; empty fields disable that capture.
type Config struct {
	// CPUProfile receives a pprof CPU profile covering Start..stop.
	CPUProfile string
	// MemProfile receives a pprof allocs profile snapshotted at stop
	// (after a final GC, so live-heap numbers are meaningful).
	MemProfile string
	// Trace receives a runtime execution trace covering Start..stop.
	Trace string
}

// Start begins the requested captures and returns the stop function.
// On error nothing is left running and no stop call is needed.
func Start(c Config) (stop func() error, err error) {
	var cpuFile, traceFile *os.File
	cleanup := func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if traceFile != nil {
			trace.Stop()
			traceFile.Close()
		}
	}
	if c.CPUProfile != "" {
		cpuFile, err = os.Create(c.CPUProfile)
		if err != nil {
			return nil, fmt.Errorf("prof: cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			cpuFile = nil
			cleanup()
			return nil, fmt.Errorf("prof: cpu profile: %w", err)
		}
	}
	if c.Trace != "" {
		traceFile, err = os.Create(c.Trace)
		if err != nil {
			cleanup()
			return nil, fmt.Errorf("prof: trace: %w", err)
		}
		if err := trace.Start(traceFile); err != nil {
			traceFile.Close()
			traceFile = nil
			cleanup()
			return nil, fmt.Errorf("prof: trace: %w", err)
		}
	}
	memPath := c.MemProfile
	return func() error {
		cleanup()
		if memPath == "" {
			return nil
		}
		f, err := os.Create(memPath)
		if err != nil {
			return fmt.Errorf("prof: mem profile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle live-heap accounting before the snapshot
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return fmt.Errorf("prof: mem profile: %w", err)
		}
		return nil
	}, nil
}
