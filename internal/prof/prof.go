// Package prof wires the standard runtime/pprof profilers into the CLI
// tools: kgtrain and kgdiscover take -cpuprofile/-memprofile flags so a
// perf regression can be pinned to a kernel without rebuilding anything
// (kgserve exposes the same data over HTTP via net/http/pprof instead).
package prof

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Do runs fn with the pprof label train_phase=phase attached, so CPU
// profiles of the trainer split cleanly by objective ("negsample",
// "kvsall") instead of lumping every kernel under the worker goroutine. Outside profiling the label costs nothing
// measurable per chunk-worker invocation.
func Do(phase string, fn func()) {
	pprof.Do(context.Background(), pprof.Labels("train_phase", phase), func(context.Context) {
		fn()
	})
}

// Start begins profiling as requested and returns a stop function that must
// run at process exit (before results are reported as final). A non-empty
// cpuPath starts CPU profiling immediately; a non-empty memPath writes a
// heap profile — after a forced GC, so the numbers reflect live memory, not
// collection timing — when the stop function runs. Either path may be empty;
// with both empty the returned stop is a no-op.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("prof: create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("prof: start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("prof: close cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("prof: create mem profile: %w", err)
			}
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return fmt.Errorf("prof: write mem profile: %w", err)
			}
			if err := f.Close(); err != nil {
				return fmt.Errorf("prof: close mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
