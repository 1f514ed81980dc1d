package quantum

import (
	"fmt"
	"math"
)

// BellDiag is the Bell-diagonal fast path of the PairState abstraction: the
// pair is ρ = Σ_b λ_b |b⟩⟨b| over the four Bell states, stored as four real
// coefficients. Every operation the protocol stack performs on a pair maps
// to O(1) closed-form arithmetic on the coefficients — no complex matrices,
// no allocations:
//
//   - a single-qubit Pauli channel permutes the coefficients (X swaps
//     Φ±↔Ψ±, Y swaps Φ+↔Ψ− and Φ−↔Ψ+, Z swaps Φ+↔Φ− and Ψ+↔Ψ−; the
//     permutation is the same for either qubit because every Bell-state
//     density matrix is invariant under qubit exchange),
//   - T1/T2 storage decoherence is applied as the Pauli twirl of the dense
//     amplitude-damping + dephasing model: the twirled channel has Bloch
//     shrink factors η_x = η_y = e^(−t/T2), η_z = e^(−t/T1), i.e. the Pauli
//     channel with pX = pY = (1−η_z)/4 and pZ = (1+η_z−2η_x)/4,
//   - an entanglement swap composes coefficient-wise: for Bell-diagonal
//     inputs every BSM outcome has probability 1/4 and the far-end
//     coefficients are ν_k = Σ_{i,j : swapped(i,j,m)=k} λ_i μ_j, reusing the
//     exact swap tables derived by the dense simulator,
//   - readout reduces to classical sampling: both marginals of a
//     Bell-diagonal state are maximally mixed, the asymmetric readout POVM
//     acts as a classical confusion matrix, and the post-measurement state
//     of the surviving qubit is diagonal in the measured basis, so it is
//     carried as a single conditional probability.
//
// Validity envelope: for Bell-diagonal states under Pauli noise (dephasing,
// depolarisation, Pauli-frame corrections, twirled links — everything the
// paper's closed-form composition F = (1+3·∏w)/4 assumes) the coefficients
// evolve exactly as the dense simulator's Bell-basis diagonal, so fidelity
// and QBER agree to floating-point accuracy. Under full NV hardware
// parameters two approximations appear, both quantified by the equivalence
// tests: (1) the heralded optical state is projected onto its Bell-basis
// diagonal (exact for the fidelity/QBER of the heralded pair itself, but the
// discarded single-qubit polarisation slightly shifts later Z-readout
// thresholds), and (2) finite-T1 storage uses the twirled channel, which
// drops the non-unital drift towards |0⟩ — an O((t/T1)²) fidelity error once
// both qubits have decayed, negligible for protocol storage times ≪ T1.
type BellDiag struct {
	// lam are the Bell-basis weights, indexed by BellState
	// (PhiPlus, PhiMinus, PsiPlus, PsiMinus). They sum to the trace.
	lam [4]float64

	// Readout bookkeeping: after the first qubit is measured the pair is a
	// classical record — the measured basis and the conditional probability
	// that an ideal measurement of the surviving qubit in that basis yields
	// outcome 0, given the declared first outcome.
	phase    int8 // 0 = entangled, 1 = one qubit read out, 2 = both
	measured int8 // qubit index of the first readout
	basis    BasisLabel
	q0       float64
}

// NewBellDiag builds a Bell-diagonal pair from explicit coefficients.
func NewBellDiag(lam [4]float64) *BellDiag {
	d := &BellDiag{}
	d.SetCoefficients(lam)
	return d
}

// NewBellDiagWerner builds the Werner state of the given fidelity with the
// target Bell state.
func NewBellDiagWerner(target BellState, fidelity float64) *BellDiag {
	var lam [4]float64
	rest := (1 - fidelity) / 3
	for b := range lam {
		lam[b] = rest
	}
	lam[target] = fidelity
	return NewBellDiag(lam)
}

// BellDiagFromDense projects a dense two-qubit state onto its Bell-basis
// diagonal — the bilateral-twirl image of the state. The projection
// preserves the fidelity with every Bell state and all same-basis
// correlation statistics (QBER) exactly.
func BellDiagFromDense(s *State) *BellDiag {
	var lam [4]float64
	for b := PhiPlus; b <= PsiMinus; b++ {
		lam[b] = s.Fidelity(BellKet(b))
	}
	return NewBellDiag(lam)
}

// BellDiagCoefficients returns the Bell-basis diagonal of a dense two-qubit
// state without constructing a BellDiag (used to precompute herald caches).
func BellDiagCoefficients(s *State) [4]float64 {
	var lam [4]float64
	for b := PhiPlus; b <= PsiMinus; b++ {
		lam[b] = s.Fidelity(BellKet(b))
	}
	return lam
}

// SetCoefficients resets the pair in place to a fresh (unmeasured)
// Bell-diagonal state — the zero-allocation herald path: pooled pairs are
// reused by resetting their coefficients.
func (d *BellDiag) SetCoefficients(lam [4]float64) {
	for _, v := range lam {
		if v < -1e-12 || math.IsNaN(v) {
			panic(fmt.Sprintf("quantum: negative Bell-diagonal coefficient %v", v))
		}
	}
	d.lam = lam
	d.phase = 0
	d.measured = 0
	d.basis = BasisZ
	d.q0 = 0
}

// BellFidelity implements PairState: the fidelity with a Bell state is its
// coefficient. Only meaningful before readout (like the dense simulator,
// whose post-collapse fidelity is equally void of meaning).
func (d *BellDiag) BellFidelity(b BellState) float64 { return d.lam[b] }

// TraceReal implements PairState.
func (d *BellDiag) TraceReal() float64 {
	if d.phase > 0 {
		return 1
	}
	return d.lam[0] + d.lam[1] + d.lam[2] + d.lam[3]
}

// ExpectedQBER implements PairState: the probability of equal outcomes in
// basis β is Σ_b λ_b over the Bell states correlated in β (the σβ⊗σβ parity
// observable is diagonal in the Bell basis), inverted against the target's
// correlation pattern.
func (d *BellDiag) ExpectedQBER(target BellState) QBER {
	var q QBER
	q.X = d.errorProbability(BasisX, target)
	q.Y = d.errorProbability(BasisY, target)
	q.Z = d.errorProbability(BasisZ, target)
	return q
}

func (d *BellDiag) errorProbability(b BasisLabel, target BellState) float64 {
	pEqual := 0.0
	for s := PhiPlus; s <= PsiMinus; s++ {
		if correlated(b, s) {
			pEqual += d.lam[s]
		}
	}
	pEqual = clamp01(pEqual)
	if correlated(b, target) {
		return 1 - pEqual
	}
	return pEqual
}

// pauliFlipsBasis reports whether the Pauli op anticommutes with the basis
// observable — i.e. flips the measured-basis eigenstates of a qubit.
func pauliFlipsBasis(op PauliOp, b BasisLabel) bool {
	switch op {
	case OpX:
		return b == BasisZ || b == BasisY
	case OpY:
		return b == BasisZ || b == BasisX
	case OpZ:
		return b == BasisX || b == BasisY
	default:
		return false
	}
}

// applyPauliChannel applies the single-qubit Pauli channel
// {1−pX−pY−pZ: I, pX: X, pY: Y, pZ: Z} to the given qubit.
func (d *BellDiag) applyPauliChannel(qubit int, pX, pY, pZ float64) {
	if pX <= 0 && pY <= 0 && pZ <= 0 {
		return
	}
	if d.phase > 0 {
		if int(d.measured) == qubit || d.phase > 1 {
			return // noise on a destroyed qubit is unobservable
		}
		flip := 0.0
		if pauliFlipsBasis(OpX, d.basis) {
			flip += pX
		}
		if pauliFlipsBasis(OpY, d.basis) {
			flip += pY
		}
		if pauliFlipsBasis(OpZ, d.basis) {
			flip += pZ
		}
		d.q0 = d.q0*(1-flip) + (1-d.q0)*flip
		return
	}
	pI := 1 - pX - pY - pZ
	l := d.lam
	d.lam[PhiPlus] = pI*l[PhiPlus] + pX*l[PsiPlus] + pY*l[PsiMinus] + pZ*l[PhiMinus]
	d.lam[PhiMinus] = pI*l[PhiMinus] + pX*l[PsiMinus] + pY*l[PsiPlus] + pZ*l[PhiPlus]
	d.lam[PsiPlus] = pI*l[PsiPlus] + pX*l[PhiPlus] + pY*l[PhiMinus] + pZ*l[PsiMinus]
	d.lam[PsiMinus] = pI*l[PsiMinus] + pX*l[PhiMinus] + pY*l[PhiPlus] + pZ*l[PsiPlus]
}

// ApplyMemoryNoise implements PairState with the Pauli twirl of the dense
// T1/T2 model: the dense channel is amplitude damping (pAmp = 1−e^(−t/T1))
// followed by the residual dephasing that brings the total coherence decay
// to e^(−t/T2); its Bloch shrink factors are η_z = 1−pAmp and
// η_x = η_y = √(1−pAmp)·(1−2·pDeph), reproduced here with the same clamping
// as MemoryNoiseKraus so the two backends agree bit-for-bit on which regimes
// decay at all.
func (d *BellDiag) ApplyMemoryNoise(qubit int, elapsed float64, p T1T2Params) {
	pAmp := decayProb(elapsed, p.T1)
	etaZ := 1 - pAmp
	shrink := math.Sqrt(etaZ)
	etaXY := shrink
	target := 1.0
	if p.T2 > 0 && !math.IsInf(p.T2, 1) && elapsed > 0 {
		target = math.Exp(-elapsed / p.T2)
	}
	if target < 1 {
		residual := 1.0
		if shrink > 0 {
			residual = target / shrink
			if residual > 1 {
				residual = 1
			}
			if residual < 0 {
				residual = 0
			}
		}
		etaXY = shrink * residual
	}
	pXY := (1 - etaZ) / 4
	pZ := (1 + etaZ - 2*etaXY) / 4
	if pZ < 0 {
		pZ = 0
	}
	d.applyPauliChannel(qubit, pXY, pXY, pZ)
}

// ApplyDephasing implements PairState.
func (d *BellDiag) ApplyDephasing(qubit int, p float64) {
	if p <= 0 {
		return
	}
	checkProbability(p, "dephasing")
	d.applyPauliChannel(qubit, 0, 0, p)
}

// ApplyDepolarizing implements PairState.
func (d *BellDiag) ApplyDepolarizing(qubit int, fidelity float64) {
	checkProbability(fidelity, "depolarizing fidelity")
	p := (1 - fidelity) / 3
	d.applyPauliChannel(qubit, p, p, p)
}

// ApplyPauli implements PairState: a deterministic Pauli unitary is the
// probability-one Pauli channel.
func (d *BellDiag) ApplyPauli(qubit int, op PauliOp) {
	switch op {
	case OpI:
	case OpX:
		d.applyPauliChannel(qubit, 1, 0, 0)
	case OpY:
		d.applyPauliChannel(qubit, 0, 1, 0)
	case OpZ:
		d.applyPauliChannel(qubit, 0, 0, 1)
	default:
		panic("quantum: pauli index out of range")
	}
}

// Twirl implements PairState: a Bell-diagonal state twirls onto the Werner
// state by spreading the non-target weight evenly.
func (d *BellDiag) Twirl(target BellState) float64 {
	if d.phase > 0 {
		panic("quantum: cannot twirl a measured pair")
	}
	f := d.lam[target]
	rest := (1 - f) / 3
	for b := range d.lam {
		d.lam[b] = rest
	}
	d.lam[target] = f
	return f
}

// Readout implements PairState. The basis-rotation gate noise
// (rotationFidelity) is dephasing in the measured basis, which commutes with
// the measurement and therefore cannot shift any outcome probability — it is
// accepted for interface parity and ignored. The declared outcome uses the
// same threshold convention as the dense path (declare 1 when u ≥ p0).
func (d *BellDiag) Readout(qubit int, basis BasisLabel, rotationFidelity, fid0, fid1, u float64) int {
	_ = rotationFidelity
	switch d.phase {
	case 0:
		// First readout: the marginal of a Bell-diagonal state is I/2, so
		// the declared-0 probability is the confusion-matrix average.
		p0 := (fid0 + (1 - fid1)) / 2
		outcome := 0
		if u >= p0 {
			outcome = 1
		}
		// Probability that the ideal outcomes of the two qubits agree in
		// this basis.
		pEqual := 0.0
		for s := PhiPlus; s <= PsiMinus; s++ {
			if correlated(basis, s) {
				pEqual += d.lam[s]
			}
		}
		trace := d.lam[0] + d.lam[1] + d.lam[2] + d.lam[3]
		if trace > 0 {
			pEqual = clamp01(pEqual / trace)
		} else {
			pEqual = 0.5
		}
		// Posterior over the first qubit's ideal outcome given what was
		// declared, then propagate through the correlation to the surviving
		// qubit.
		var w float64 // P(ideal first outcome = 0 | declared)
		if outcome == 0 {
			w = posterior(fid0, 1-fid1)
		} else {
			w = posterior(1-fid0, fid1)
		}
		d.q0 = w*pEqual + (1-w)*(1-pEqual)
		d.phase = 1
		d.measured = int8(qubit)
		d.basis = basis
		return outcome
	case 1:
		if qubit == int(d.measured) {
			panic("quantum: qubit already read out")
		}
		pTrue0 := 0.5
		if basis == d.basis {
			pTrue0 = d.q0
		}
		p0 := pTrue0*fid0 + (1-pTrue0)*(1-fid1)
		outcome := 0
		if u >= p0 {
			outcome = 1
		}
		d.phase = 2
		return outcome
	default:
		panic("quantum: both qubits already read out")
	}
}

// posterior returns P(true=0 | declared) for confusion-matrix entries
// pDeclared0 = P(declared | true=0) and pDeclared1 = P(declared | true=1),
// with the maximally-mixed 1/2 prior of a Bell-diagonal marginal.
func posterior(pDeclared0, pDeclared1 float64) float64 {
	total := pDeclared0 + pDeclared1
	if total <= 0 {
		return 0.5
	}
	return pDeclared0 / total
}

// SwapBellDiag performs one entanglement swap between two Bell-diagonal
// pairs entirely by value: the BSM gate noise depolarises one qubit of each
// input (exactly what the dense path applies to the two measured qubits —
// for Bell-diagonal states either qubit gives the same coefficient map), the
// outcome is selected uniformly (every BSM outcome of a Bell-diagonal
// product has probability 1/4) by the sample u, and the far-end coefficients
// compose through the exact swap tables. Neither input is mutated and
// nothing escapes to the heap.
func SwapBellDiag(left, right *BellDiag, gateFidelity, u float64) (BellDiag, BellState) {
	if left.phase > 0 || right.phase > 0 {
		panic("quantum: cannot swap a measured pair")
	}
	ll, rl := *left, *right
	if gateFidelity < 1 {
		ll.ApplyDepolarizing(0, gateFidelity)
		rl.ApplyDepolarizing(0, gateFidelity)
	}
	// Outcome branch: uniform quarters, selected with the same subtractive
	// scan as the dense MeasureBell so identical samples pick identical
	// outcomes.
	outcome := PsiMinus
	x := u
	for b := PhiPlus; b <= PsiMinus; b++ {
		x -= 0.25
		if x < 0 {
			outcome = b
			break
		}
	}
	var far BellDiag
	for i := PhiPlus; i <= PsiMinus; i++ {
		li := ll.lam[i]
		if li == 0 {
			continue
		}
		for j := PhiPlus; j <= PsiMinus; j++ {
			far.lam[SwappedBell(i, j, outcome)] += li * rl.lam[j]
		}
	}
	return far, outcome
}

// SwapWith implements PairState; it wraps SwapBellDiag and heap-allocates
// only the returned pair object.
func (d *BellDiag) SwapWith(right PairState, qThis, qRight int, gateFidelity, u float64) (PairState, BellState) {
	_ = qThis // Bell-diagonal states are invariant under qubit exchange,
	_ = qRight
	r, ok := right.(*BellDiag)
	if !ok {
		panic("quantum: cannot swap a Bell-diagonal pair with a non-Bell-diagonal pair")
	}
	far, outcome := SwapBellDiag(d, r, gateFidelity, u)
	out := new(BellDiag)
	*out = far
	return out, outcome
}

// Dense implements PairState: no dense representation is kept.
func (d *BellDiag) Dense() *State { return nil }
