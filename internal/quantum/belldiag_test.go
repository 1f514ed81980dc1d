package quantum

import (
	"math"
	"testing"
)

// exactTol is the backend-equivalence bound for regimes where the
// Bell-diagonal representation is exact: Bell-diagonal states under Pauli
// noise (dephasing, depolarisation, Pauli frames, twirls, swaps) and — for
// fidelity/QBER observables — single-sided T1/T2 storage. 1e-9 is the
// tolerance promised by the README's validity envelope.
const exactTol = 1e-9

// randomish deterministic Bell-diagonal coefficient sets covering pure,
// Werner-like and skewed mixtures.
func testCoefficientSets() [][4]float64 {
	return [][4]float64{
		{1, 0, 0, 0},
		{0, 0, 1, 0},
		{0.85, 0.05, 0.05, 0.05},
		{0.05, 0.05, 0.85, 0.05},
		{0.4, 0.3, 0.2, 0.1},
		{0.25, 0.25, 0.25, 0.25},
		{0.7, 0.0, 0.2, 0.1},
	}
}

// denseFromCoefficients builds the dense Bell-diagonal density matrix
// Σ λ_b |b⟩⟨b|.
func denseFromCoefficients(lam [4]float64) *State {
	rho := NewMatrix(4)
	for b := PhiPlus; b <= PsiMinus; b++ {
		p := BellProjector(b).Scale(complex(lam[b], 0))
		rho = rho.Add(p)
	}
	return NewStateFromDensity(rho)
}

// compareBackends asserts fidelity (all four Bell states) and QBER agreement
// between a dense state and a BellDiag within tol.
func compareBackends(t *testing.T, dense *State, bd *BellDiag, tol float64, what string) {
	t.Helper()
	for b := PhiPlus; b <= PsiMinus; b++ {
		df, bf := dense.BellFidelity(b), bd.BellFidelity(b)
		if math.Abs(df-bf) > tol {
			t.Fatalf("%s: fidelity with %v differs: dense %v belldiag %v", what, b, df, bf)
		}
	}
	dq, bq := dense.ExpectedQBER(PsiPlus), bd.ExpectedQBER(PsiPlus)
	if math.Abs(dq.X-bq.X) > tol || math.Abs(dq.Y-bq.Y) > tol || math.Abs(dq.Z-bq.Z) > tol {
		t.Fatalf("%s: QBER differs: dense %+v belldiag %+v", what, dq, bq)
	}
}

// The heart of the backend-equivalence satellite: for Bell-diagonal states
// under twirled/Pauli channels the fast path must track the dense simulator
// to 1e-9 on fidelity and QBER through a representative noise sequence.
func TestBellDiagMatchesDenseUnderPauliChannels(t *testing.T) {
	for _, lam := range testCoefficientSets() {
		dense := denseFromCoefficients(lam)
		bd := NewBellDiag(lam)

		// Gate noise (dephasing) on both qubits.
		dense.ApplyDephasing(0, 0.013)
		bd.ApplyDephasing(0, 0.013)
		dense.ApplyDephasing(1, 0.0005)
		bd.ApplyDephasing(1, 0.0005)
		// BSM-style depolarisation.
		dense.ApplyDepolarizing(1, 0.98)
		bd.ApplyDepolarizing(1, 0.98)
		// Pauli-frame corrections.
		for _, op := range []PauliOp{OpX, OpY, OpZ} {
			dense.ApplyPauli(0, op)
			bd.ApplyPauli(0, op)
			dense.ApplyPauli(1, op)
			bd.ApplyPauli(1, op)
		}
		// Pure-dephasing memory (T1 disabled): an exactly Pauli channel.
		p := T1T2Params{T1: math.Inf(1), T2: 3.5e-3}
		dense.ApplyMemoryNoise(0, 450e-6, p)
		bd.ApplyMemoryNoise(0, 450e-6, p)
		compareBackends(t, dense, bd, exactTol, "pauli channel sequence")

		// Twirling must agree and leave both Werner.
		df := dense.Twirl(PsiPlus)
		bf := bd.Twirl(PsiPlus)
		if math.Abs(df-bf) > exactTol {
			t.Fatalf("twirl fidelity differs: dense %v belldiag %v", df, bf)
		}
		compareBackends(t, dense, bd, exactTol, "after twirl")
	}
}

// Single-sided full NV T1/T2 storage: the non-unital part of amplitude
// damping lives entirely outside the Bell-diagonal sector (its drift is a
// Z⊗I component), so fidelity and QBER of a Bell-diagonal state still match
// the dense simulator exactly after one-sided decoherence.
func TestBellDiagMemoryNoiseSingleSidedExact(t *testing.T) {
	electron := T1T2Params{T1: 2.86e-3, T2: 1.00e-3}
	for _, lam := range testCoefficientSets() {
		for _, elapsed := range []float64{1e-6, 100e-6, 1e-3} {
			dense := denseFromCoefficients(lam)
			bd := NewBellDiag(lam)
			dense.ApplyMemoryNoise(0, elapsed, electron)
			bd.ApplyMemoryNoise(0, elapsed, electron)
			compareBackends(t, dense, bd, exactTol, "single-sided T1/T2")
		}
	}
}

// Both-sided finite-T1 storage is where the twirled map is an approximation:
// the dense channel correlates the two decays (both qubits drift towards
// |0⟩, feeding ⟨ZZ⟩), an O((t/T1)²) effect the twirl discards. This pins the
// documented tolerance of the validity envelope: the deviation scales as
// (1−e^(−t/T1))²/2 — ≤ 2e-3 on fidelity/QBER for 100 µs of storage on both
// electron spins (t/T1 ≈ 0.035), ≤ 5e-2 at a full millisecond (t/T1 ≈ 0.35,
// i.e. storage approaching T1 itself, far beyond protocol dwell times).
func TestBellDiagMemoryNoiseBothSidedTolerance(t *testing.T) {
	electron := T1T2Params{T1: 2.86e-3, T2: 1.00e-3}
	check := func(elapsed, tol float64) {
		t.Helper()
		for _, lam := range testCoefficientSets() {
			dense := denseFromCoefficients(lam)
			bd := NewBellDiag(lam)
			dense.ApplyMemoryNoise(0, elapsed, electron)
			bd.ApplyMemoryNoise(0, elapsed, electron)
			dense.ApplyMemoryNoise(1, elapsed, electron)
			bd.ApplyMemoryNoise(1, elapsed, electron)
			compareBackends(t, dense, bd, tol, "both-sided T1/T2")
		}
	}
	check(100e-6, 2e-3)
	check(1e-3, 5e-2)
}

// Swaps must agree with both the dense simulator and the paper's closed-form
// Werner composition F = (1+3·∏w)/4, including BSM gate noise, and must
// consume the uniform sample identically (same u → same outcome label).
func TestBellDiagSwapMatchesDenseAndClosedForm(t *testing.T) {
	fids := []float64{0.95, 0.9, 0.85, 0.8}
	gates := []float64{1.0, 0.98}
	us := []float64{0.05, 0.3, 0.55, 0.9}
	for _, gate := range gates {
		for i, u := range us {
			// Dense chain.
			denseLeft := WernerState(PsiPlus, fids[0])
			bdLeft := NewBellDiagWerner(PsiPlus, fids[0])
			label := PsiPlus
			bdLabel := PsiPlus
			want := []float64{fids[0]}
			for k := 1; k < len(fids); k++ {
				denseRight := WernerState(PsiPlus, fids[k])
				bdRight := NewBellDiagWerner(PsiPlus, fids[k])
				var dOut BellState
				var dFar PairState
				dFar, dOut = denseLeft.SwapWith(denseRight, 1, 0, gate, u)
				denseLeft = dFar.Dense()
				label = SwappedBell(label, PsiPlus, dOut)

				bFar, bo := SwapBellDiag(bdLeft, bdRight, gate, u)
				bdLeft = &bFar
				bdLabel = SwappedBell(bdLabel, PsiPlus, bo)
				if bo != dOut {
					t.Fatalf("swap %d (u=%v): outcome differs: dense %v belldiag %v", k, u, dOut, bo)
				}
				want = append(want, fids[k])
			}
			if bdLabel != label {
				t.Fatalf("composed label differs: dense %v belldiag %v", label, bdLabel)
			}
			df := denseLeft.BellFidelity(label)
			bf := bdLeft.BellFidelity(label)
			if math.Abs(df-bf) > exactTol {
				t.Fatalf("chain %d (gate=%v): fidelity differs: dense %v belldiag %v", i, gate, df, bf)
			}
			// Closed form: every swap multiplies in the two input weights
			// and the squared gate factor.
			w := WernerWeight(want[0])
			g := DepolarizingWeightFactor(gate)
			for k := 1; k < len(want); k++ {
				w *= WernerWeight(want[k]) * g * g
			}
			if closed := WernerFidelity(w); math.Abs(bf-closed) > exactTol {
				t.Fatalf("belldiag fidelity %v differs from closed form %v", bf, closed)
			}
		}
	}
}

// Heralding projects the dense conditional state onto its Bell-basis
// diagonal; that projection must preserve every Bell fidelity and the QBER
// exactly — including for the non-Bell-diagonal states of the full optical
// model (the Bell-basis diagonal and the σβ⊗σβ parities are the same data).
func TestBellDiagHeraldProjectionPreservesObservables(t *testing.T) {
	// A deliberately non-Bell-diagonal state: heralded-like mixture with
	// coherences and a |00⟩ component.
	psi := Ket{complex(0.2, 0), complex(0.68, 0.1), complex(-0.66, 0.05), complex(0.1, 0)}
	dense := NewStateFromKet(psi)
	bd := BellDiagFromDense(dense)
	compareBackends(t, dense, bd, 1e-12, "herald projection")
}

// Readout statistics must match the dense POVM path for Bell-diagonal
// states: the declared-outcome threshold of the first readout, and the
// conditional distribution of the second — in the same or a different basis,
// with Pauli-channel noise on the surviving qubit in between.
func TestBellDiagReadoutMatchesDense(t *testing.T) {
	const f0, f1 = 0.95, 0.995
	bases := []BasisLabel{BasisZ, BasisX, BasisY}
	for _, lam := range testCoefficientSets() {
		for _, b1 := range bases {
			for _, b2 := range bases {
				for _, u1 := range []float64{0.1, 0.6, 0.95} {
					dense := denseFromCoefficients(lam)
					bd := NewBellDiag(lam)
					d1 := dense.Readout(0, b1, 1, f0, f1, u1)
					o1 := bd.Readout(0, b1, 1, f0, f1, u1)
					if d1 != o1 {
						t.Fatalf("lam=%v basis=%v u=%v: first outcome differs: dense %d belldiag %d", lam, b1, u1, d1, o1)
					}
					// Interleaved noise on the surviving qubit.
					dense.ApplyDephasing(1, 0.02)
					bd.ApplyDephasing(1, 0.02)
					dense.ApplyDepolarizing(1, 0.99)
					bd.ApplyDepolarizing(1, 0.99)
					// Compare the full declared-0 probability of the second
					// readout by scanning the threshold: the dense POVM
					// probability is recovered from the largest u that still
					// declares 0.
					dp := readoutP0Dense(dense, 1, b2, f0, f1)
					bp := readoutP0BellDiag(bd, 1, b2, f0, f1)
					if math.Abs(dp-bp) > exactTol {
						t.Fatalf("lam=%v %v→%v first=%d: second-readout p0 differs: dense %v belldiag %v", lam, b1, b2, d1, dp, bp)
					}
				}
			}
		}
	}
}

// readoutP0Dense computes the dense declared-0 probability of a readout
// without consuming the state.
func readoutP0Dense(s *State, qubit int, basis BasisLabel, f0, f1 float64) float64 {
	c := s.Copy()
	if basis != BasisZ {
		c.ApplyUnitary(BasisRotation(basis), qubit)
	}
	m0, _ := ReadoutKraus(f0, f1)
	return c.Probability(m0.Dagger().Mul(m0), qubit)
}

// readoutP0BellDiag recovers the BellDiag declared-0 probability by binary
// search over the threshold sample.
func readoutP0BellDiag(d *BellDiag, qubit int, basis BasisLabel, f0, f1 float64) float64 {
	lo, hi := 0.0, 1.0
	for i := 0; i < 60; i++ {
		mid := (lo + hi) / 2
		c := *d
		if c.Readout(qubit, basis, 1, f0, f1, mid) == 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo
}

// The Bell-diagonal pair lifecycle — herald (reset from cached
// coefficients), storage noise, per-attempt dephasing, Pauli frame, swap,
// and both readouts — must run without a single heap allocation in steady
// state. This is the AllocsPerRun satellite pinning the fast path at zero.
func TestBellDiagLifecycleAllocFree(t *testing.T) {
	herald := [4]float64{0.02, 0.03, 0.9, 0.05}
	electron := T1T2Params{T1: 2.86e-3, T2: 1.00e-3}
	left := NewBellDiag(herald)
	right := NewBellDiag(herald)
	SwappedBell(PsiPlus, PsiPlus, PhiPlus) // derive the swap tables up front

	allocs := testing.AllocsPerRun(200, func() {
		// Herald two link pairs (pool-style reuse).
		left.SetCoefficients(herald)
		right.SetCoefficients(herald)
		// Storage decoherence and per-attempt dephasing on both.
		left.ApplyMemoryNoise(0, 50e-6, electron)
		left.ApplyDephasing(1, 0.002)
		right.ApplyMemoryNoise(1, 20e-6, electron)
		// Entanglement swap with BSM gate noise.
		far, outcome := SwapBellDiag(left, right, 0.98, 0.42)
		// Pauli-frame correction back to Ψ+.
		far.ApplyPauli(1, CorrectionPauliOp(SwappedBell(PsiPlus, PsiPlus, outcome), PsiPlus))
		// Fidelity read + both readouts.
		_ = far.BellFidelity(PsiPlus)
		_ = far.Readout(0, BasisX, 1, 0.95, 0.995, 0.37)
		_ = far.Readout(1, BasisX, 1, 0.95, 0.995, 0.81)
	})
	if allocs != 0 {
		t.Fatalf("BellDiag lifecycle allocated %v objects per run, want 0", allocs)
	}
}

// ParseBackend and the env default must round-trip the two names.
func TestBackendParsing(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Backend
		ok   bool
	}{
		{"", BackendDense, true},
		{"dense", BackendDense, true},
		{"belldiag", BackendBellDiagonal, true},
		{"bell-diagonal", BackendBellDiagonal, true},
		{"nope", BackendDense, false},
	} {
		got, err := ParseBackend(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if BackendDense.String() != "dense" || BackendBellDiagonal.String() != "belldiag" {
		t.Fatal("backend names changed; CLI flags and JSON depend on them")
	}
}
