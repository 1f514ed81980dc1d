// Package prof is the shared CLI plumbing behind the observability flags of
// cmd/netsim and cmd/e2e: starting and stopping pprof profiles and writing
// flight-recorder traces and metrics snapshots to files.
package prof

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"repro/internal/obs"
	"repro/internal/sim"
)

// StartCPU begins a CPU profile written to path and returns the function that
// stops it. An empty path is a no-op.
func StartCPU(path string) (stop func(), err error) {
	if path == "" {
		return func() {}, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("prof: start cpu profile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		f.Close()
	}, nil
}

// WriteHeap writes an allocation (heap) profile to path after a final GC so
// the numbers reflect live memory. An empty path is a no-op.
func WriteHeap(path string) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("prof: write heap profile: %w", err)
	}
	return nil
}

// WriteTrace exports the tracer's merged records as Chrome trace-event JSON
// to path. An empty path is a no-op; a nil tracer writes a valid empty trace.
func WriteTrace(path string, t *obs.Tracer) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := t.WriteChrome(f); err != nil {
		return fmt.Errorf("prof: write trace: %w", err)
	}
	if n := t.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "note: trace rings overwrote %d records; raise the ring capacity for a longer window\n", n)
	}
	return nil
}

// WriteMetrics writes the registry's snapshot at sim time end as indented
// JSON to path. An empty path is a no-op.
func WriteMetrics(path string, r *obs.Registry, end sim.Time) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := r.Snapshot(end).WriteJSON(f); err != nil {
		return fmt.Errorf("prof: write metrics: %w", err)
	}
	return nil
}
