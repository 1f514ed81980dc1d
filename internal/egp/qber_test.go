package egp

import (
	"math"
	"testing"
	"testing/quick"
)

func TestQBERCounter(t *testing.T) {
	var q QBERCounter
	// Ψ+ is anti-correlated in Z: equal outcomes are errors.
	q.Record(0, 0, 1) // correct
	q.Record(0, 1, 1) // error
	// Correlated in X: unequal outcomes are errors.
	q.Record(1, 0, 0) // correct
	q.Record(1, 0, 1) // error
	q.Record(1, 1, 1) // correct
	z, x, y := q.Rates()
	if math.Abs(z-0.5) > 1e-12 || math.Abs(x-1.0/3) > 1e-12 || y != 0 {
		t.Fatalf("rates wrong: %v %v %v", z, x, y)
	}
	if q.Samples() != 5 {
		t.Fatalf("samples = %d", q.Samples())
	}
	want := 1 - (0.5+1.0/3)/2
	if math.Abs(q.FidelityEstimate()-want) > 1e-12 {
		t.Fatalf("fidelity estimate = %v, want %v", q.FidelityEstimate(), want)
	}
}

func TestQBERCounterPerfectCorrelations(t *testing.T) {
	var q QBERCounter
	for i := 0; i < 100; i++ {
		q.Record(0, i%2, 1-i%2) // always anti-correlated in Z
		q.Record(1, i%2, i%2)   // always correlated in X
		q.Record(2, i%2, i%2)   // always correlated in Y
	}
	if q.FidelityEstimate() != 1 {
		t.Fatalf("perfect correlations should give F=1, got %v", q.FidelityEstimate())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid basis should panic")
		}
	}()
	q.Record(5, 0, 0)
}

// Property: QBER fidelity estimate is always a valid fidelity.
func TestPropertyQBERFidelityBounds(t *testing.T) {
	f := func(outcomes []uint8) bool {
		var q QBERCounter
		for i, o := range outcomes {
			q.Record(i%3, int(o)&1, int(o>>1)&1)
		}
		fEst := q.FidelityEstimate()
		return fEst >= 0 && fEst <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
