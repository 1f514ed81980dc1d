// Package photonics models the optical part of heralded entanglement
// generation: photon emission from a communication qubit, transmission
// losses over fibre, the midpoint beam-splitter measurement with partially
// distinguishable photons, and the classical detector imperfections
// (efficiency and dark counts).
//
// The model follows Appendix D.4 and D.5 of the paper: every loss mechanism
// is an amplitude-damping channel on the presence/absence photon qubit,
// phase uncertainty and two-photon emission are dephasing channels, and the
// beam-splitter measurement is the POVM {M̃00, M̃10, M̃01, M̃11} of
// Eqs. (90)–(93) parameterised by the photon indistinguishability µ.
package photonics

import (
	"fmt"
	"math"

	"repro/internal/quantum"
)

// Fiber describes one optical fibre segment between a node and the heralding
// station.
type Fiber struct {
	LengthKM      float64 // physical length in km
	AttenuationDB float64 // attenuation in dB/km (0.5 with frequency conversion, 5 without)
}

// TransmissionLossProb returns the amplitude-damping parameter of Eq. (33):
// p = 1 − 10^(−L·γ/10).
func (f Fiber) TransmissionLossProb() float64 {
	if f.LengthKM < 0 || f.AttenuationDB < 0 {
		panic("photonics: negative fibre parameters")
	}
	return 1 - math.Pow(10, -f.LengthKM*f.AttenuationDB/10)
}

// SpeedOfLightFiber is the speed of light in fibre used by the paper,
// in km/s.
const SpeedOfLightFiber = 206753.0

// PropagationDelaySeconds returns the one-way propagation delay over the
// fibre.
func (f Fiber) PropagationDelaySeconds() float64 {
	return f.LengthKM / SpeedOfLightFiber
}

// EmissionParams describes photon emission from the NV communication qubit
// and the collection path up to the fibre (Appendix D.4.4–D.4.5).
type EmissionParams struct {
	// DetectionWindow is the midpoint detection time window tw (seconds).
	DetectionWindow float64
	// EmissionCharTime is the characteristic emission time τe (seconds);
	// 12 ns without a cavity, 6.48 ns with one.
	EmissionCharTime float64
	// ZeroPhononProb is the probability of emitting into the zero-phonon
	// line (0.03 without cavity, 0.46 with cavity).
	ZeroPhononProb float64
	// CollectionProb is the probability of collecting the emitted photon
	// into the fibre.
	CollectionProb float64
	// ConversionProb is the frequency-conversion success probability
	// (1.0 when no conversion is performed, 0.30 with conversion).
	ConversionProb float64
	// TwoPhotonProb is the conditional probability of a two-photon emission
	// given at least one photon was emitted (≈ 0.04).
	TwoPhotonProb float64
	// PhaseStdDegrees is the standard deviation (degrees) of the optical
	// phase between the electron-photon states of Eq. (29); the paper uses
	// 14.3°/√2 per arm.
	PhaseStdDegrees float64
}

// CoherentEmissionDamping returns the amplitude-damping parameter of
// Eq. (30): p = exp(−tw/τe) arising from the finite detection window.
func (e EmissionParams) CoherentEmissionDamping() float64 {
	if e.EmissionCharTime <= 0 {
		return 0
	}
	return math.Exp(-e.DetectionWindow / e.EmissionCharTime)
}

// CollectionDamping returns the amplitude-damping parameter of Eq. (31)
// including frequency conversion: p = 1 − pzero·pcoll·pconv.
func (e EmissionParams) CollectionDamping() float64 {
	conv := e.ConversionProb
	if conv == 0 {
		conv = 1
	}
	p := 1 - e.ZeroPhononProb*e.CollectionProb*conv
	return clamp01(p)
}

// PhaseDephasingProb converts the phase standard deviation into a dephasing
// probability via Eq. (28): pd = (1 − I1(σ⁻²)/I0(σ⁻²))/2.
func (e EmissionParams) PhaseDephasingProb() float64 {
	sigma := e.PhaseStdDegrees * math.Pi / 180
	if sigma <= 0 {
		return 0
	}
	x := 1 / (sigma * sigma)
	ratio := besselRatioI1I0(x)
	return clamp01((1 - ratio) / 2)
}

// besselRatioI1I0 computes I1(x)/I0(x) for x ≥ 0 using the continued
// fraction approach of Amos (1974) for moderate arguments and the standard
// asymptotic expansion for large arguments (small phase noise).
func besselRatioI1I0(x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x > 50 {
		// Asymptotic expansion of the ratio for large x.
		return 1 - 1/(2*x) - 1/(8*x*x) - 1/(8*x*x*x)
	}
	// Continued fraction r0 = I1/I0 with r_k = 1/(2(k+1)/x + r_{k+1}),
	// evaluated bottom-up with enough terms for double precision.
	terms := 80 + int(2*x)
	f := 0.0
	for k := terms; k >= 1; k-- {
		f = 1 / (2*float64(k)/x + f)
	}
	return f
}

// DetectorParams models the midpoint single-photon detectors.
type DetectorParams struct {
	Efficiency    float64 // probability a real photon produces a click (0.8)
	DarkCountRate float64 // dark counts per second (20 /s)
	Window        float64 // detection window (s) used for dark-count probability
}

// DarkCountProb returns the per-window dark-click probability of Eq. (34).
func (d DetectorParams) DarkCountProb() float64 {
	return 1 - math.Exp(-d.Window*d.DarkCountRate)
}

// MidpointOutcome is the heralding result announced by the station.
type MidpointOutcome int

// Possible heralding outcomes; the success outcomes identify which Bell
// state was produced.
const (
	OutcomeFail     MidpointOutcome = 0 // none or both detectors clicked
	OutcomePsiPlus  MidpointOutcome = 1 // only the "left" detector clicked
	OutcomePsiMinus MidpointOutcome = 2 // only the "right" detector clicked
)

// String renders the outcome.
func (o MidpointOutcome) String() string {
	switch o {
	case OutcomeFail:
		return "fail"
	case OutcomePsiPlus:
		return "psi+"
	case OutcomePsiMinus:
		return "psi-"
	default:
		return fmt.Sprintf("outcome(%d)", int(o))
	}
}

// Success reports whether the outcome heralds an entangled pair.
func (o MidpointOutcome) Success() bool { return o == OutcomePsiPlus || o == OutcomePsiMinus }

// BeamSplitterPOVM holds the four effective POVM elements (and matching
// Kraus operators) of the midpoint measurement for non-photon-counting
// detectors, Eqs. (90)–(97), in the two-qubit presence/absence basis
// ordered |00⟩,|10⟩,|01⟩,|11⟩ — i.e. (photon-from-A, photon-from-B).
type BeamSplitterPOVM struct {
	Visibility         float64 // |µ|² — photon indistinguishability (0.9 in the Lab setup)
	mu                 float64
	M00, M10, M01, M11 quantum.Matrix
	K00, K10, K01, K11 quantum.Matrix
}

// NewBeamSplitterPOVM constructs the POVM for a given photon visibility
// |µ|². µ is taken real and non-negative (a global phase of µ is not
// observable in the click statistics).
func NewBeamSplitterPOVM(visibility float64) *BeamSplitterPOVM {
	if visibility < 0 || visibility > 1 {
		panic("photonics: visibility out of [0,1]")
	}
	mu := math.Sqrt(visibility)
	b := &BeamSplitterPOVM{Visibility: visibility, mu: mu}
	c := func(v float64) complex128 { return complex(v, 0) }

	// Basis order: |00⟩, |01⟩, |10⟩, |11⟩ in standard binary ordering where
	// qubit 0 = photon from A, qubit 1 = photon from B. The appendix orders
	// rows as |00⟩,|10⟩,|01⟩,|11⟩; we translate to binary order here:
	// index 1 = |01⟩ (photon only from B), index 2 = |10⟩ (photon only from A).
	m := func(pOnlyA, pOnlyB, cross, both float64) quantum.Matrix {
		out := quantum.NewMatrix(4)
		out.Set(2, 2, c(pOnlyA))
		out.Set(1, 1, c(pOnlyB))
		out.Set(2, 1, c(cross))
		out.Set(1, 2, c(cross))
		out.Set(3, 3, c(both))
		return out
	}

	b.M00 = quantum.NewMatrix(4)
	b.M00.Set(0, 0, 1)
	b.M10 = m(0.5, 0.5, mu/2, (1+visibility)/4)
	b.M01 = m(0.5, 0.5, -mu/2, (1+visibility)/4)
	b.M11 = quantum.NewMatrix(4)
	b.M11.Set(3, 3, c((1-visibility)/2))

	// Kraus operators: matrix square roots (Eqs. 94–97).
	a := (math.Sqrt(1+mu) + math.Sqrt(1-mu)) / (2 * math.Sqrt2)
	bOff := (math.Sqrt(1+mu) - math.Sqrt(1-mu)) / (2 * math.Sqrt2)
	bothAmp := math.Sqrt(1+visibility) / 2

	b.K00 = quantum.NewMatrix(4)
	b.K00.Set(0, 0, 1)

	k10 := quantum.NewMatrix(4)
	k10.Set(2, 2, c(a))
	k10.Set(1, 1, c(a))
	k10.Set(2, 1, c(bOff))
	k10.Set(1, 2, c(bOff))
	k10.Set(3, 3, c(bothAmp))
	b.K10 = k10

	k01 := quantum.NewMatrix(4)
	k01.Set(2, 2, c(a))
	k01.Set(1, 1, c(a))
	k01.Set(2, 1, c(-bOff))
	k01.Set(1, 2, c(-bOff))
	k01.Set(3, 3, c(bothAmp))
	b.K01 = k01

	k11 := quantum.NewMatrix(4)
	k11.Set(3, 3, c(math.Sqrt((1-visibility)/2)))
	b.K11 = k11
	return b
}

// ClickPattern identifies which ideal detector(s) clicked.
type ClickPattern int

// Ideal click patterns before detector noise.
const (
	ClickNone ClickPattern = iota
	ClickLeft
	ClickRight
	ClickBoth
)

// MeasureOutcome performs the beam-splitter measurement on the two photon
// qubits of the joint state, collapsing the state according to the sampled
// outcome. The photon qubit indices are given by qubitA and qubitB; u is a
// uniform random sample in [0,1) supplied by the caller.
//
// It returns the ideal click pattern (before detector inefficiency and dark
// counts are applied) and the probability of the sampled branch.
func (b *BeamSplitterPOVM) MeasureOutcome(state *quantum.State, qubitA, qubitB int, u float64) (ClickPattern, float64) {
	type branch struct {
		pattern ClickPattern
		povm    quantum.Matrix
		kraus   quantum.Matrix
	}
	branches := []branch{
		{ClickNone, b.M00, b.K00},
		{ClickLeft, b.M10, b.K10},
		{ClickRight, b.M01, b.K01},
		{ClickBoth, b.M11, b.K11},
	}
	probs := make([]float64, len(branches))
	total := 0.0
	for i, br := range branches {
		probs[i] = state.Probability(br.povm, qubitA, qubitB)
		total += probs[i]
	}
	if total <= 0 {
		return ClickNone, 0
	}
	x := u * total
	for i, br := range branches {
		x -= probs[i]
		if x < 0 || i == len(branches)-1 {
			p := state.Collapse(br.kraus, qubitA, qubitB)
			return br.pattern, p
		}
	}
	return ClickNone, 0
}

// ApplyDetectorNoise converts an ideal click pattern into an observed one by
// applying per-detector efficiency and dark counts. u1..u4 are uniform
// samples for (left real click survives, right real click survives, left
// dark count, right dark count).
func ApplyDetectorNoise(ideal ClickPattern, det DetectorParams, u1, u2, u3, u4 float64) ClickPattern {
	return detectorNoise(ideal, det.Efficiency, det.DarkCountProb(), u1, u2, u3, u4)
}

// detectorNoise is ApplyDetectorNoise for detectors of the given efficiency
// and per-window dark-count probability.
func detectorNoise(ideal ClickPattern, eff, dark, u1, u2, u3, u4 float64) ClickPattern {
	left := ideal == ClickLeft || ideal == ClickBoth
	right := ideal == ClickRight || ideal == ClickBoth
	if left {
		left = u1 < eff
	}
	if right {
		right = u2 < eff
	}
	if !left && u3 < dark {
		left = true
	}
	if !right && u4 < dark {
		right = true
	}
	switch {
	case left && right:
		return ClickBoth
	case left:
		return ClickLeft
	case right:
		return ClickRight
	default:
		return ClickNone
	}
}

// OutcomeFromClicks converts an observed click pattern into the heralding
// outcome announced by the midpoint: exactly one click heralds success.
func OutcomeFromClicks(p ClickPattern) MidpointOutcome {
	switch p {
	case ClickLeft:
		return OutcomePsiPlus
	case ClickRight:
		return OutcomePsiMinus
	default:
		return OutcomeFail
	}
}

func clamp01(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}
