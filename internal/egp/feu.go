package egp

import (
	"math"

	"repro/internal/nv"
	"repro/internal/photonics"
)

// FidelityEstimationUnit (FEU, Section 5.2.3) converts a requested minimum
// fidelity into generation parameters (the bright-state population α) and a
// minimum completion-time estimate, and maintains a running estimate of the
// link quality from interspersed test rounds (Appendix B).
type FidelityEstimationUnit struct {
	platform *nv.Platform
	sampler  *photonics.LinkSampler

	// alphaCap bounds the bright-state population from above; α close to 1
	// produces almost no entanglement, and hardware control typically limits
	// it to ≈0.5.
	alphaCap float64

	// storageMargin is the fidelity head-room reserved for storage and
	// post-processing noise when inverting Fmin to α.
	storageMargin float64

	// Test-round machinery: a window of QBER samples from measured pairs.
	testWindow   int
	testCounter  QBERCounter
	testRecorded int

	// cache of Fmin → α solutions.
	alphaCache map[float64]float64
}

// NewFEU builds a fidelity estimation unit for a platform.
func NewFEU(platform *nv.Platform, sampler *photonics.LinkSampler) *FidelityEstimationUnit {
	return &FidelityEstimationUnit{
		platform:      platform,
		sampler:       sampler,
		alphaCap:      0.5,
		storageMargin: 0.0,
		testWindow:    1000,
		alphaCache:    make(map[float64]float64),
	}
}

// SetStorageMargin reserves head-room in the α inversion for downstream
// storage noise (used by tests and by K-heavy configurations).
func (f *FidelityEstimationUnit) SetStorageMargin(m float64) { f.storageMargin = m }

// AlphaForFidelity returns the largest bright-state population whose
// expected heralded-state fidelity still meets Fmin (plus the storage
// margin). The second return value is false when even the smallest usable α
// cannot reach the target.
func (f *FidelityEstimationUnit) AlphaForFidelity(fmin float64) (float64, bool) {
	if cached, ok := f.alphaCache[fmin]; ok {
		return cached, cached > 0
	}
	target := fmin + f.storageMargin
	if target > 1 {
		f.alphaCache[fmin] = 0
		return 0, false
	}
	// The expected fidelity is monotone decreasing in α, so binary search
	// for the largest α meeting the target.
	const minAlpha = 1e-3
	if f.sampler.ExpectedSuccessFidelity(minAlpha, minAlpha) < target {
		f.alphaCache[fmin] = 0
		return 0, false
	}
	lo, hi := minAlpha, f.alphaCap
	if f.sampler.ExpectedSuccessFidelity(hi, hi) >= target {
		f.alphaCache[fmin] = hi
		return hi, true
	}
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if f.sampler.ExpectedSuccessFidelity(mid, mid) >= target {
			lo = mid
		} else {
			hi = mid
		}
	}
	f.alphaCache[fmin] = lo
	return lo, true
}

// SuccessProbability returns the per-attempt herald success probability for
// a bright-state population.
func (f *FidelityEstimationUnit) SuccessProbability(alpha float64) float64 {
	return f.platform.SuccessProbability(f.sampler, alpha)
}

// EstimateCompletionCycles estimates how many MHP cycles are needed to
// deliver numPairs pairs at the given α for the given request type: the
// expected cycles per attempt E divided by the per-attempt success
// probability, times the number of pairs.
func (f *FidelityEstimationUnit) EstimateCompletionCycles(numPairs int, alpha float64, keep bool) float64 {
	p := f.SuccessProbability(alpha)
	if p <= 0 {
		return math.Inf(1)
	}
	rt := nv.RequestMeasure
	if keep {
		rt = nv.RequestKeep
	}
	e := f.platform.ExpectedCyclesPerAttempt[rt]
	if e < 1 {
		e = 1
	}
	return float64(numPairs) * e / p
}

// EstimateCompletionSeconds converts EstimateCompletionCycles into seconds
// using the platform's base MHP cycle time.
func (f *FidelityEstimationUnit) EstimateCompletionSeconds(numPairs int, alpha float64, keep bool) float64 {
	cycles := f.EstimateCompletionCycles(numPairs, alpha, keep)
	if math.IsInf(cycles, 1) {
		return math.Inf(1)
	}
	return cycles * f.platform.CycleTime[nv.RequestMeasure].Seconds()
}

// BaseEstimate returns the a-priori fidelity estimate for pairs generated at
// the given α (before test-round refinement): the heralded-state fidelity of
// the optical model.
func (f *FidelityEstimationUnit) BaseEstimate(alpha float64) float64 {
	return f.sampler.ExpectedSuccessFidelity(alpha, alpha)
}

// RecordTestOutcome feeds one measured correlation (from a test round or an
// MD pair) into the estimator. basis is 0=Z, 1=X, 2=Y.
func (f *FidelityEstimationUnit) RecordTestOutcome(basis int, outcomeA, outcomeB int) {
	if f.testRecorded >= f.testWindow {
		// Start a fresh window so the estimate tracks drift.
		f.testCounter = QBERCounter{}
		f.testRecorded = 0
	}
	f.testCounter.Record(basis, outcomeA, outcomeB)
	f.testRecorded++
}

// TestRoundSamples returns how many outcomes the current window holds.
func (f *FidelityEstimationUnit) TestRoundSamples() int { return f.testCounter.Samples() }

// Goodness returns the fidelity estimate attached to OK messages: the
// test-round estimate once enough samples exist, otherwise the base
// estimate for the α in use.
func (f *FidelityEstimationUnit) Goodness(alpha float64) float64 {
	const minSamples = 30
	if f.testCounter.Samples() >= minSamples {
		return f.testCounter.FidelityEstimate()
	}
	return f.BaseEstimate(alpha)
}

// QBEREstimate returns the current measured QBER per basis (Z, X, Y).
func (f *FidelityEstimationUnit) QBEREstimate() (z, x, y float64) { return f.testCounter.Rates() }

// QBERCounter accumulates basis-resolved error counts of measured pairs
// against the |Ψ+⟩ correlations (anti-correlated in Z, correlated in X and
// Y) and converts them into a fidelity estimate via Eq. (16). The zero
// value is an empty counter.
type QBERCounter struct {
	errors [3]int // indexed by basis: Z, X, Y
	totals [3]int
}

// psiPlusCorrelated[b] is true when ideal |Ψ+⟩ outcomes in basis b are
// equal.
var psiPlusCorrelated = [3]bool{false, true, true}

// Record adds one joint measurement outcome in the given basis
// (0=Z, 1=X, 2=Y).
func (q *QBERCounter) Record(basis int, outcomeA, outcomeB int) {
	if basis < 0 || basis > 2 {
		panic("egp: basis out of range")
	}
	q.totals[basis]++
	if (outcomeA == outcomeB) != psiPlusCorrelated[basis] {
		q.errors[basis]++
	}
}

// Rates returns the per-basis error rates (Z, X, Y); bases with no samples
// report 0.
func (q *QBERCounter) Rates() (z, x, y float64) {
	rate := func(i int) float64 {
		if q.totals[i] == 0 {
			return 0
		}
		return float64(q.errors[i]) / float64(q.totals[i])
	}
	return rate(0), rate(1), rate(2)
}

// Samples returns the total number of recorded outcomes.
func (q *QBERCounter) Samples() int { return q.totals[0] + q.totals[1] + q.totals[2] }

// FidelityEstimate converts the accumulated QBERs into a fidelity estimate
// via Eq. (16): F = 1 − (QBERX + QBERY + QBERZ)/2, clamped to [0, 1].
func (q *QBERCounter) FidelityEstimate() float64 {
	z, x, y := q.Rates()
	return min(1, max(0, 1-(x+y+z)/2))
}
