package mhp

import (
	"testing"

	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
)

func testPair() *nv.EntangledPair {
	return nv.NewEntangledPair(quantum.NewBellState(quantum.PsiPlus), quantum.PsiPlus, 0)
}

// TestPairRegistrySweep pins down the eviction rule: entries lagging the
// newest sequence number by more than maxLag (in circular uint16 distance)
// are dropped, everything newer survives — including across the wraparound.
func TestPairRegistrySweep(t *testing.T) {
	r := NewPairRegistry()
	pair := testPair()
	// Straddle the uint16 wraparound: 65530..65535 then 0..5.
	for seq := uint16(65530); seq != 6; seq++ {
		r.Put(seq, pair)
	}
	if r.Len() != 12 {
		t.Fatalf("expected 12 entries, got %d", r.Len())
	}
	// Generous lag: nothing is old enough to evict.
	if n := r.Sweep(100); n != 0 {
		t.Fatalf("sweep with generous lag evicted %d entries", n)
	}
	// Lag 5 keeps newest=5 and the 5 sequences behind it (4,3,2,1,0),
	// evicting the six pre-wrap entries.
	if n := r.Sweep(5); n != 6 {
		t.Fatalf("sweep(5) evicted %d entries, want 6", n)
	}
	if r.Len() != 6 {
		t.Fatalf("expected 6 survivors, got %d", r.Len())
	}
	for seq := uint16(0); seq != 6; seq++ {
		if r.Get(seq) == nil {
			t.Fatalf("recent entry %d was evicted", seq)
		}
	}
	if r.Get(65535) != nil {
		t.Fatal("stale pre-wrap entry survived the sweep")
	}
	if r.Evicted() != 6 {
		t.Fatalf("Evicted() = %d, want 6", r.Evicted())
	}
}

// TestPairRegistrySweepEmpty checks sweeping before any Put is a no-op.
func TestPairRegistrySweepEmpty(t *testing.T) {
	r := NewPairRegistry()
	if n := r.Sweep(0); n != 0 {
		t.Fatalf("sweep of empty registry evicted %d", n)
	}
}

// TestPairRegistryBoundedUnderLostReplies simulates the leak scenario of the
// fix: the midpoint keeps registering pairs but the nodes never claim
// (Forget) them because every REPLY is lost. The registry must stay bounded
// purely through Put-triggered sweeps.
func TestPairRegistryBoundedUnderLostReplies(t *testing.T) {
	r := NewPairRegistry()
	pair := testPair()
	seq := uint16(0)
	for i := 0; i < 200000; i++ {
		seq++
		r.Put(seq, pair)
		if r.Len() > registryHighWater+1 {
			t.Fatalf("registry grew to %d entries after %d lost replies", r.Len(), i+1)
		}
	}
	if r.Evicted() == 0 {
		t.Fatal("no entries were ever evicted")
	}
}

// TestNodeMaintenanceSweepsRegistry checks the nodes' periodic maintenance
// pass sweeps the link's registry even when no new pairs are being produced
// (no Put-triggered sweeps can fire).
func TestNodeMaintenanceSweepsRegistry(t *testing.T) {
	h := newHarness(t, 0)
	pair := testPair()
	for seq := uint16(1); seq <= 10; seq++ {
		h.registry.Put(seq, pair)
	}
	// Jump the newest sequence far ahead so the seeded entries are stale.
	h.registry.Put(2000, pair)
	if h.registry.Len() != 11 {
		t.Fatalf("expected 11 entries before the sweep, got %d", h.registry.Len())
	}
	// Run past cycle 1024 (the maintenance period) with no attempts.
	stop := h.start()
	_ = h.s.RunFor(11 * sim.Millisecond)
	stop()
	if h.registry.Len() != 1 {
		t.Fatalf("maintenance sweep left %d entries, want 1", h.registry.Len())
	}
	if h.registry.Get(2000) == nil {
		t.Fatal("the newest entry must survive the maintenance sweep")
	}
}
