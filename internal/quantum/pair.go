package quantum

import (
	"fmt"
	"math"
)

// This file defines the pluggable pair-state abstraction: every layer of the
// stack (photonics heralding, NV device noise, EGP delivery, network-layer
// swapping) manipulates a two-qubit entangled pair only through the PairState
// interface, so the representation of that pair is a per-run choice. Two
// implementations exist:
//
//   - the dense density-matrix simulator (*State implements PairState
//     directly) — exact for every channel of Appendix D and the default, and
//   - the Bell-diagonal fast path (*BellDiag, belldiag.go) — four real
//     coefficients in the Bell basis, exact for twirled/Pauli noise and
//     O(1) per operation with zero allocations.

// Backend selects the pair-state representation used by a run.
type Backend int

// The registered pair-state backends. BackendDense is the zero value, so
// configurations that never mention a backend keep the exact simulator.
const (
	// BackendDense is the exact 4×4 density-matrix simulator.
	BackendDense Backend = iota
	// BackendBellDiagonal is the 4-coefficient diagonal-in-the-Bell-basis
	// representation: Pauli channels permute and scale the coefficients,
	// twirled T1/T2 maps update them in closed form, and swaps compose
	// coefficient-wise. Exact for Bell-diagonal states under twirled noise;
	// see the BellDiag docs for the validity envelope on full NV hardware.
	BackendBellDiagonal
)

// String renders the backend's canonical CLI/JSON name.
func (b Backend) String() string {
	if b == BackendBellDiagonal {
		return "belldiag"
	}
	return "dense"
}

// ParseBackend converts a backend name into a Backend.
func ParseBackend(s string) (Backend, error) {
	switch s {
	case "", "dense":
		return BackendDense, nil
	case "belldiag", "bell-diagonal", "belldiagonal":
		return BackendBellDiagonal, nil
	default:
		return BackendDense, fmt.Errorf("quantum: unknown backend %q (want dense or belldiag)", s)
	}
}

// PauliOp indexes the four single-qubit Paulis in the order used by the
// swap-correction tables: I, X, Y, Z.
type PauliOp int

// The four Pauli operators.
const (
	OpI PauliOp = iota
	OpX
	OpY
	OpZ
)

// Matrix returns the 2×2 matrix of the Pauli operator.
func (p PauliOp) Matrix() Matrix { return pauliByIndex(int(p)) }

// PairState is the two-qubit entangled-pair lifecycle as seen by the
// protocol stack: heralded creation hands one out, storage applies T1/T2 and
// per-attempt dephasing, delivery reads fidelity/QBER, repeaters swap two of
// them into one, and measure-directly requests read out each qubit once.
// Qubit 0 is pair side A, qubit 1 side B, matching nv.EntangledPair.
type PairState interface {
	// BellFidelity returns the fidelity with the given Bell state. It is
	// only meaningful before either qubit has been read out.
	BellFidelity(b BellState) float64
	// ExpectedQBER returns the exact per-basis error rates against the
	// correlation pattern of the target Bell state.
	ExpectedQBER(target BellState) QBER
	// TraceReal returns the trace of the state (1 for a normalised pair).
	TraceReal() float64
	// ApplyMemoryNoise applies elapsed seconds of T1/T2 storage decoherence
	// to one qubit.
	ApplyMemoryNoise(qubit int, elapsed float64, p T1T2Params)
	// ApplyDephasing applies the single-qubit dephasing channel
	// ρ → (1−p)ρ + p·ZρZ to one qubit; gate noise of fidelity f is
	// ApplyDephasing(q, 1−f).
	ApplyDephasing(qubit int, p float64)
	// ApplyDepolarizing applies the single-qubit depolarising channel of the
	// given channel fidelity to one qubit.
	ApplyDepolarizing(qubit int, fidelity float64)
	// ApplyPauli applies an exact (noiseless) Pauli unitary to one qubit —
	// the Pauli-frame corrections of the protocol.
	ApplyPauli(qubit int, op PauliOp)
	// Twirl replaces the state by the Werner state of equal fidelity with
	// the target Bell state and returns that fidelity.
	Twirl(target BellState) float64
	// Readout destructively measures one qubit in the given basis through
	// the platform's noisy readout: rotationFidelity is the basis-rotation
	// gate fidelity, fid0/fid1 the asymmetric readout fidelities of
	// declaring |0⟩/|1⟩ correctly (Eq. 23), and u a uniform sample in [0,1)
	// selecting the declared outcome. Each qubit may be read out once.
	Readout(qubit int, basis BasisLabel, rotationFidelity, fid0, fid1, u float64) int
	// SwapWith performs an entanglement swap: a Bell-state measurement on
	// qubit qThis of this pair and qubit qRight of right — each through a
	// depolarising channel of the given gate fidelity when < 1 — returning
	// the composed far-end pair (this pair's far qubit first) and the BSM
	// outcome selected by the uniform sample u. Both pairs must use the
	// same backend.
	SwapWith(right PairState, qThis, qRight int, gateFidelity, u float64) (PairState, BellState)
	// Dense returns the underlying dense state, or nil for representations
	// that do not keep one (callers needing exact off-diagonal structure
	// must run on the dense backend).
	Dense() *State
}

// --- dense implementation: *State is a PairState -------------------------

// ExpectedQBER implements PairState on the dense simulator.
func (s *State) ExpectedQBER(target BellState) QBER { return ExpectedQBER(s, target) }

// ApplyMemoryNoise implements PairState on the dense simulator.
func (s *State) ApplyMemoryNoise(qubit int, elapsed float64, p T1T2Params) {
	ApplyMemoryNoise(s, qubit, elapsed, p)
}

// ApplyDephasing implements PairState on the dense simulator.
func (s *State) ApplyDephasing(qubit int, p float64) {
	if p <= 0 {
		return
	}
	s.ApplyKraus(DephasingKraus(p), qubit)
}

// ApplyDepolarizing implements PairState on the dense simulator.
func (s *State) ApplyDepolarizing(qubit int, fidelity float64) {
	s.ApplyKraus(DepolarizingKraus(fidelity), qubit)
}

// ApplyPauli implements PairState on the dense simulator.
func (s *State) ApplyPauli(qubit int, op PauliOp) {
	if op == OpI {
		return
	}
	s.ApplyUnitary(op.Matrix(), qubit)
}

// Twirl implements PairState on the dense simulator.
func (s *State) Twirl(target BellState) float64 { return TwirlToWerner(s, target) }

// ReadoutKraus builds the asymmetric readout Kraus operators of Eq. (23):
// m0 = diag(√f0, √(1−f1)) declares 0, m1 = diag(√(1−f0), √f1) declares 1.
func ReadoutKraus(f0, f1 float64) (m0, m1 Matrix) {
	m0 = NewMatrix(2)
	m0.Set(0, 0, complex(sqrtNonNeg(f0), 0))
	m0.Set(1, 1, complex(sqrtNonNeg(1-f1), 0))
	m1 = NewMatrix(2)
	m1.Set(0, 0, complex(sqrtNonNeg(1-f0), 0))
	m1.Set(1, 1, complex(sqrtNonNeg(f1), 0))
	return m0, m1
}

// Readout implements PairState on the dense simulator: the basis rotation
// (with its gate noise), the asymmetric readout POVM of Appendix D.3.4, and
// the collapse onto the declared outcome.
func (s *State) Readout(qubit int, basis BasisLabel, rotationFidelity, fid0, fid1, u float64) int {
	if basis != BasisZ {
		s.ApplyUnitary(BasisRotation(basis), qubit)
		if rotationFidelity < 1 {
			s.ApplyKraus(GateNoiseKraus(rotationFidelity), qubit)
		}
	}
	m0, m1 := ReadoutKraus(fid0, fid1)
	p0 := s.Probability(m0.Dagger().Mul(m0), qubit)
	outcome := 0
	if u >= p0 {
		outcome = 1
	}
	if outcome == 0 {
		s.Collapse(m0, qubit)
	} else {
		s.Collapse(m1, qubit)
	}
	return outcome
}

// SwapWith implements PairState on the dense simulator via SwapVia.
func (s *State) SwapWith(right PairState, qThis, qRight int, gateFidelity, u float64) (PairState, BellState) {
	rd := right.Dense()
	if rd == nil {
		panic("quantum: cannot swap a dense pair with a non-dense pair")
	}
	far, outcome := SwapVia(s, rd, qThis, qRight, gateFidelity, u)
	return far, outcome
}

// Dense implements PairState on the dense simulator.
func (s *State) Dense() *State { return s }

// sqrtNonNeg is √v clamped at zero, guarding tiny negative rounding inputs.
func sqrtNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	return math.Sqrt(v)
}
