package obs

import (
	"testing"

	"repro/internal/sim"
)

// TestDisabledPathsAllocFree pins the zero-cost-when-off guarantee: nil
// rings and histograms must not allocate, and a nil registry ignores a
// counter's registration.
func TestDisabledPathsAllocFree(t *testing.T) {
	var (
		ring *Ring
		reg  *Registry
		h    *Histogram
		ch   *ClassHistograms
	)
	read := func() uint64 { return 7 }
	allocs := testing.AllocsPerRun(1000, func() {
		ring.Record(1, KindEGPOK, 3, 4, 5)
		reg.CounterFunc("c", read)
		h.Observe(123)
		ch.Observe(1, 456)
	})
	if allocs != 0 {
		t.Fatalf("disabled observability allocated %.1f per op, want 0", allocs)
	}
}

// TestEnabledRecordAllocFree pins the enabled flight-recorder record path at
// 0 allocs in steady state (buffers are allocated at wiring time).
func TestEnabledRecordAllocFree(t *testing.T) {
	tr := NewTracer(2, 1024)
	ring := tr.Ring(0, LayerMHP)
	var at sim.Time
	allocs := testing.AllocsPerRun(10000, func() {
		ring.Record(at, KindMHPAttempt, 17, 42, 1)
		at++
	})
	if allocs != 0 {
		t.Fatalf("enabled ring record allocated %.1f per op, want 0", allocs)
	}
}

// TestEnabledMetricsAllocFree pins Histogram.Observe at 0 allocs once the
// handles exist. A counter costs the hot path nothing the registry adds: it
// is the counting layer's own field, read only when a snapshot is taken.
func TestEnabledMetricsAllocFree(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h")
	ch := NewClassHistograms(r, "ttp")
	v := int64(1)
	allocs := testing.AllocsPerRun(10000, func() {
		h.Observe(v)
		ch.Observe(int(v)%3, sim.Duration(v))
		v++
	})
	if allocs != 0 {
		t.Fatalf("enabled metrics allocated %.1f per op, want 0", allocs)
	}
}
