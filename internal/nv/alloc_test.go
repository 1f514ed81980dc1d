package nv

import (
	"testing"

	"repro/internal/quantum"
)

// TestAttemptDephasingAllocatesNothing pins the per-attempt carbon dephasing
// at zero allocations on the dense backend: while a device holds a pair in
// memory, every entanglement attempt dephases it, and the Kraus operators
// for the attempt's α are built once, not per attempt. The result must be
// bit-identical to dephasing through the state's own ApplyDephasing, also
// when α alternates.
func TestAttemptDephasingAllocatesNothing(t *testing.T) {
	d := newTestDevice(1)
	pair := newTestPair(0)
	if pair.State.Dense() == nil {
		t.Fatal("test pair is not on the dense backend")
	}
	if err := d.StorePair(pair, SideA); err != nil {
		t.Fatal(err)
	}
	if err := d.MoveToMemory(pair, SideA, 1, 0); err != nil {
		t.Fatal(err)
	}
	ref := pair.State.Dense().Copy()
	for _, alpha := range []float64{0.3, 0.3, 0.1, 0.3} {
		d.ApplyAttemptDephasing(alpha)
		ref.ApplyDephasing(int(SideA), d.Coupling.DephasingPerAttempt(alpha))
		if !sameState(pair.State.Dense(), ref) {
			t.Fatalf("α=%v: memoised dephasing differs from ApplyDephasing", alpha)
		}
	}
	if a := testing.AllocsPerRun(100, func() { d.ApplyAttemptDephasing(0.3) }); a != 0 {
		t.Fatalf("ApplyAttemptDephasing allocated %v objects per attempt, want 0", a)
	}
}

// sameState reports whether two density matrices are equal bit for bit.
func sameState(a, b *quantum.State) bool {
	da, db := a.Density(), b.Density()
	for i := range da.Data {
		if da.Data[i] != db.Data[i] {
			return false
		}
	}
	return true
}
