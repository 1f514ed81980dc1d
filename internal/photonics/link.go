package photonics

import (
	"math"

	"repro/internal/quantum"
)

// HeraldedLink composes the full optical model of one entanglement
// generation attempt between two nodes A and B via the midpoint heralding
// station H: local electron-photon state preparation with bright-state
// population α, every loss and dephasing mechanism of Appendix D.4, and the
// beam-splitter measurement plus detector noise of Appendix D.5.
//
// Build one with NewHeraldedLink. A link memoises the attempt distributions
// its samplers compute, so its parameters must not change after construction.
type HeraldedLink struct {
	EmissionA EmissionParams
	EmissionB EmissionParams
	FiberA    Fiber
	FiberB    Fiber
	Detectors DetectorParams
	// Visibility is the photon indistinguishability |µ|² at the midpoint.
	Visibility float64

	povm *BeamSplitterPOVM
	memo *distributionMemo
}

// NewHeraldedLink builds a link model and precomputes the beam-splitter POVM.
func NewHeraldedLink(emA, emB EmissionParams, fibA, fibB Fiber, det DetectorParams, visibility float64) *HeraldedLink {
	return &HeraldedLink{
		EmissionA:  emA,
		EmissionB:  emB,
		FiberA:     fibA,
		FiberB:     fibB,
		Detectors:  det,
		Visibility: visibility,
		povm:       NewBeamSplitterPOVM(visibility),
		memo:       &distributionMemo{m: make(map[alphaKey]*attemptDistribution)},
	}
}

// RandomSource supplies uniform samples; it is satisfied by *sim.RNG and by
// deterministic test doubles.
type RandomSource interface {
	Float64() float64
}

// AttemptResult is the outcome of one physical entanglement generation
// attempt.
type AttemptResult struct {
	// Outcome is the heralding signal announced by the midpoint after
	// detector imperfections.
	Outcome MidpointOutcome
	// State is the post-measurement joint state of the two communication
	// qubits (qubit 0 at A, qubit 1 at B), represented on the sampler's
	// pair-state backend (dense from HeraldedLink.Attempt, which always
	// runs the exact model). It is only meaningful when Outcome.Success()
	// is true; on a false-positive herald (dark count) it still holds the
	// collapsed electron state, which is then of low fidelity — exactly
	// the error source the protocol must tolerate. The cached sampler
	// (LinkSampler.Sample) leaves it nil on failed attempts, since the
	// vast majority of attempts fail and nothing downstream reads the
	// state of a failure.
	State quantum.PairState
	// IdealPattern and ObservedPattern record the click pattern before and
	// after detector noise, for diagnostics and tests.
	IdealPattern    ClickPattern
	ObservedPattern ClickPattern
}

// electronPhotonKet returns the joint electron ⊗ photon state
// √α|0⟩|1⟩ + √(1−α)|1⟩|0⟩ used by the single-click scheme (Appendix D.4).
func electronPhotonKet(alpha float64) quantum.Ket {
	a := complex(math.Sqrt(alpha), 0)
	b := complex(math.Sqrt(1-alpha), 0)
	// Basis order |e p⟩: |00⟩,|01⟩,|10⟩,|11⟩.
	return quantum.Ket{0, a, b, 0}
}

// photonLossDamping aggregates every amplitude-damping contribution on one
// arm: finite detection window, collection/zero-phonon/frequency-conversion
// losses and fibre transmission.
func photonLossDamping(em EmissionParams, fib Fiber) []float64 {
	return []float64{
		em.CoherentEmissionDamping(),
		em.CollectionDamping(),
		fib.TransmissionLossProb(),
	}
}

// Attempt simulates a single entanglement generation attempt with bright
// state population alphaA at node A and alphaB at node B, drawing all random
// samples from rng.
//
// The returned state orders qubits as (electron A, electron B).
func (l *HeraldedLink) Attempt(alphaA, alphaB float64, rng RandomSource) AttemptResult {
	if alphaA < 0 || alphaA > 1 || alphaB < 0 || alphaB > 1 {
		panic("photonics: bright state population out of [0,1]")
	}
	// Joint state ordering: qubit 0 = electron A, qubit 1 = photon A,
	// qubit 2 = electron B, qubit 3 = photon B.
	stateA := quantum.NewStateFromKet(electronPhotonKet(alphaA))
	stateB := quantum.NewStateFromKet(electronPhotonKet(alphaB))
	joint := stateA.Tensor(stateB)

	const (
		qElectronA = 0
		qPhotonA   = 1
		qElectronB = 2
		qPhotonB   = 3
	)

	// Two-photon emission: effective dephasing on each electron (D.4.3).
	if p := l.EmissionA.TwoPhotonProb; p > 0 {
		joint.ApplyKraus(quantum.DephasingKraus(clamp01(p)), qElectronA)
	}
	if p := l.EmissionB.TwoPhotonProb; p > 0 {
		joint.ApplyKraus(quantum.DephasingKraus(clamp01(p)), qElectronB)
	}

	// Phase uncertainty between the two optical paths: dephasing on each
	// photon qubit (D.4.2).
	if p := l.EmissionA.PhaseDephasingProb(); p > 0 {
		joint.ApplyKraus(quantum.DephasingKraus(p), qPhotonA)
	}
	if p := l.EmissionB.PhaseDephasingProb(); p > 0 {
		joint.ApplyKraus(quantum.DephasingKraus(p), qPhotonB)
	}

	// Loss mechanisms on each photon arm: amplitude damping (D.4.4–D.4.6).
	for _, p := range photonLossDamping(l.EmissionA, l.FiberA) {
		if p > 0 {
			joint.ApplyKraus(quantum.AmplitudeDampingKraus(p), qPhotonA)
		}
	}
	for _, p := range photonLossDamping(l.EmissionB, l.FiberB) {
		if p > 0 {
			joint.ApplyKraus(quantum.AmplitudeDampingKraus(p), qPhotonB)
		}
	}

	// Beam-splitter measurement at the heralding station.
	ideal, _ := l.povm.MeasureOutcome(joint, qPhotonA, qPhotonB, rng.Float64())

	// Classical detector imperfections.
	observed := ApplyDetectorNoise(ideal, l.Detectors, rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64())
	outcome := OutcomeFromClicks(observed)

	// Reduce to the two electron qubits.
	electrons := joint.PartialTrace(qPhotonA, qPhotonB)
	return AttemptResult{
		Outcome:         outcome,
		State:           electrons,
		IdealPattern:    ideal,
		ObservedPattern: observed,
	}
}

// SuccessProbability returns the analytic probability that an attempt with
// the given bright-state populations heralds success (exactly one detector
// clicks), ignoring dark counts: psucc ≈ 2·α·pdet in the small-pdet limit of
// Section 4.4.
func (l *HeraldedLink) SuccessProbability(alphaA, alphaB float64) float64 {
	// Survival probability of each photon arm.
	surviveArm := func(em EmissionParams, fib Fiber, alpha float64) float64 {
		p := alpha
		for _, loss := range photonLossDamping(em, fib) {
			p *= 1 - loss
		}
		return p
	}
	pA := surviveArm(l.EmissionA, l.FiberA, alphaA) * l.Detectors.Efficiency
	pB := surviveArm(l.EmissionB, l.FiberB, alphaB) * l.Detectors.Efficiency
	// Exactly one photon detected: either A's photon arrives and B's does
	// not (or is lost/undetected), or vice versa; when both arrive they go
	// to the same detector (HOM) half the time each but count as a single
	// click for non-photon-counting detectors with probability of only one
	// detector firing — approximate with the standard 2·α·pdet expression by
	// taking the exclusive cases plus both-arrive-same-detector events.
	pOnlyA := pA * (1 - pB)
	pOnlyB := pB * (1 - pA)
	pBoth := pA * pB
	// With indistinguishable photons both photons bunch onto one output arm,
	// still heralding a (false) success for non-counting detectors; with
	// visibility v they anti-bunch with probability (1-v)/2 producing two
	// clicks (failure).
	pBothSingleClick := pBoth * (1 - (1-l.Visibility)/2)
	return pOnlyA + pOnlyB + pBothSingleClick
}

// FidelityEstimate returns the analytic small-error estimate F ≈ 1 − α of
// Section 4.4 for the post-selected entangled state, ignoring memory and
// gate noise. It is used by the fidelity estimation unit as a base estimate
// before test rounds refine it.
func FidelityEstimate(alpha float64) float64 {
	return clamp01(1 - alpha)
}

// AlphaForFidelity inverts the base estimate: the bright-state population
// needed to reach a target fidelity (before other noise), α ≈ 1 − F.
func AlphaForFidelity(fidelity float64) float64 {
	return clamp01(1 - fidelity)
}
