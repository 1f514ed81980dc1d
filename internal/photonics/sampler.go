package photonics

import (
	"fmt"
	"sync"

	"repro/internal/quantum"
)

// LinkSampler caches the pre-measurement optical state for a fixed pair of
// bright-state populations so that individual entanglement attempts are
// cheap: the branch probabilities and conditional post-measurement electron
// states only depend on (αA, αB) and the link parameters, so they are
// computed once with the dense density-matrix model and then sampled
// classically per attempt. This keeps the physics of Appendix D exact on the
// heralded-success path while letting the discrete-event simulation run
// hundreds of thousands of MHP cycles per second of wall time.
//
// The link's detectors must not change once a sampler is built on it: their
// dark-count probability is computed once, with the sampler.
type LinkSampler struct {
	link *HeraldedLink
	// dark is the link detectors' per-window dark-count probability.
	dark float64

	// backend selects the pair-state representation handed out on heralded
	// successes: dense density-matrix copies (exact, the default) or
	// Bell-diagonal coefficient vectors (the O(1) fast path). The branch
	// probabilities are always computed with the dense model, so heralding
	// statistics are backend-independent.
	backend quantum.Backend

	cache map[alphaKey]*attemptDistribution
	// last is the distribution distribution returned last, at lastKey: a
	// fold draws one attempt per cycle at the same populations, and a map
	// lookup per cycle would cost as much as the draw.
	last    *attemptDistribution
	lastKey alphaKey

	// attempts counts how many times Sample has been called; the benchmark
	// harness divides allocation and wall-clock deltas by it.
	attempts uint64

	// uBuf is the reusable batch-draw buffer of Sample. Handing a slice of a
	// local array through the batchSource interface would force the array to
	// the heap on every attempt; a sampler is confined to one simulator
	// thread, so a single persistent buffer is safe.
	uBuf [5]float64
	// held is set when uBuf holds the uniforms of the next attempt, drawn
	// ahead by FailRun (a success) or Draw (any outcome): the next Sample, at
	// heldKey's populations, consumes them instead of drawing.
	held    bool
	heldKey alphaKey
}

type alphaKey struct{ a, b float64 }

// attemptDistribution stores, for one (αA, αB) pair, the probability of each
// ideal click pattern and the conditional electron-electron state for each.
type attemptDistribution struct {
	probs  [4]float64        // indexed by ClickPattern
	total  float64           // sum of probs in index order, cached for sampling
	states [4]*quantum.State // conditional electron states, nil when prob≈0
	// bell is the Bell-basis diagonal of each conditional state — the
	// Bell-diagonal backend's herald payload, precomputed once per (α, α)
	// so per-success cost is a 4-float copy.
	bell [4][4]float64
}

// NewLinkSampler wraps a heralded link with a per-alpha cache; pairs are
// handed out on the exact dense backend.
func NewLinkSampler(link *HeraldedLink) *LinkSampler {
	return NewLinkSamplerBackend(link, quantum.BackendDense)
}

// NewLinkSamplerBackend wraps a heralded link with a per-alpha cache,
// heralding pairs on the given backend.
func NewLinkSamplerBackend(link *HeraldedLink, backend quantum.Backend) *LinkSampler {
	return &LinkSampler{
		link: link, dark: link.Detectors.DarkCountProb(), backend: backend,
		cache: make(map[alphaKey]*attemptDistribution),
	}
}

// Backend returns the pair-state backend heralded pairs use.
func (s *LinkSampler) Backend() quantum.Backend { return s.backend }

// Link returns the underlying heralded link model.
func (s *LinkSampler) Link() *HeraldedLink { return s.link }

// Attempts returns how many entanglement attempts have been sampled.
func (s *LinkSampler) Attempts() uint64 { return s.attempts }

// Held reports whether the sampler holds the next attempt's uniforms, drawn
// ahead by FailRun or Draw, for the next Sample to consume.
func (s *LinkSampler) Held() bool { return s.held }

// distribution returns the branch distribution for the given bright-state
// populations from the sampler's own cache, falling back to the link's.
func (s *LinkSampler) distribution(alphaA, alphaB float64) *attemptDistribution {
	key := alphaKey{alphaA, alphaB}
	if s.last != nil && s.lastKey == key {
		return s.last
	}
	d, ok := s.cache[key]
	if !ok {
		d = s.link.distribution(key)
		s.cache[key] = d
	}
	s.last, s.lastKey = d, key
	return d
}

// distributionMemo holds the attempt distributions computed for one link,
// shared by every sampler built on it: all links of a network share one
// platform's optics, so the FEU's α bisection runs the dense model once per
// network instead of once per link. A distribution is a pure function of the
// link parameters and (αA, αB), so sharing changes no result. Samplers of a
// sharded network can miss concurrently, hence the lock; each sampler takes it
// only on a miss in its own cache.
type distributionMemo struct {
	mu sync.Mutex
	m  map[alphaKey]*attemptDistribution
}

// distribution returns the memoised distribution for key, computing it on
// first use.
func (l *HeraldedLink) distribution(key alphaKey) *attemptDistribution {
	l.memo.mu.Lock()
	defer l.memo.mu.Unlock()
	d, ok := l.memo.m[key]
	if !ok {
		d = l.computeDistribution(key.a, key.b)
		l.memo.m[key] = d
	}
	return d
}

// computeDistribution runs the dense model once and collapses it onto each
// of the four ideal click patterns.
func (l *HeraldedLink) computeDistribution(alphaA, alphaB float64) *attemptDistribution {
	if alphaA < 0 || alphaA > 1 || alphaB < 0 || alphaB > 1 {
		panic(fmt.Sprintf("photonics: bright state population out of range (%v, %v)", alphaA, alphaB))
	}
	stateA := quantum.NewStateFromKet(electronPhotonKet(alphaA))
	stateB := quantum.NewStateFromKet(electronPhotonKet(alphaB))
	joint := stateA.Tensor(stateB)

	const (
		qElectronA = 0
		qPhotonA   = 1
		qElectronB = 2
		qPhotonB   = 3
	)
	if p := l.EmissionA.TwoPhotonProb; p > 0 {
		joint.ApplyKraus(quantum.DephasingKraus(clamp01(p)), qElectronA)
	}
	if p := l.EmissionB.TwoPhotonProb; p > 0 {
		joint.ApplyKraus(quantum.DephasingKraus(clamp01(p)), qElectronB)
	}
	if p := l.EmissionA.PhaseDephasingProb(); p > 0 {
		joint.ApplyKraus(quantum.DephasingKraus(p), qPhotonA)
	}
	if p := l.EmissionB.PhaseDephasingProb(); p > 0 {
		joint.ApplyKraus(quantum.DephasingKraus(p), qPhotonB)
	}
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

	povm := l.povm
	branches := []struct {
		pattern ClickPattern
		povmEl  quantum.Matrix
		kraus   quantum.Matrix
	}{
		{ClickNone, povm.M00, povm.K00},
		{ClickLeft, povm.M10, povm.K10},
		{ClickRight, povm.M01, povm.K01},
		{ClickBoth, povm.M11, povm.K11},
	}
	d := &attemptDistribution{}
	for _, br := range branches {
		p := joint.Probability(br.povmEl, qPhotonA, qPhotonB)
		d.probs[br.pattern] = p
		if p > 1e-15 {
			collapsed := joint.Copy()
			collapsed.Collapse(br.kraus, qPhotonA, qPhotonB)
			electrons := collapsed.PartialTrace(qPhotonA, qPhotonB)
			d.states[br.pattern] = electrons
			d.bell[br.pattern] = quantum.BellDiagCoefficients(electrons)
		} else {
			// A pattern of (numerically) zero probability can still be
			// observed through detector dark counts; the heralded pair is
			// then the untouched |00⟩ electrons.
			d.bell[br.pattern] = quantum.BellDiagCoefficients(quantum.NewState(2))
		}
	}
	for _, p := range d.probs {
		d.total += p
	}
	return d
}

// IdealClickProbabilities returns the probability of each ideal click
// pattern for the given bright-state populations, indexed by ClickPattern.
func (s *LinkSampler) IdealClickProbabilities(alphaA, alphaB float64) [4]float64 {
	return s.distribution(alphaA, alphaB).probs
}

// HeraldSuccessProbability returns the probability that an attempt is
// announced as a success by the midpoint, including detector efficiency and
// dark counts.
func (s *LinkSampler) HeraldSuccessProbability(alphaA, alphaB float64) float64 {
	d := s.distribution(alphaA, alphaB)
	eff := s.link.Detectors.Efficiency
	pSuccess := 0.0
	for pattern, p := range d.probs {
		if p <= 0 {
			continue
		}
		pSuccess += p * singleClickProbability(ClickPattern(pattern), eff, s.dark)
	}
	return pSuccess
}

// singleClickProbability returns the probability that exactly one detector
// registers a click given the ideal pattern, detector efficiency and dark
// count probability.
func singleClickProbability(ideal ClickPattern, eff, dark float64) float64 {
	// Click probability per detector given whether a real photon hit it.
	pClick := func(hasPhoton bool) float64 {
		if hasPhoton {
			// Real click with probability eff, otherwise a dark count may
			// still fire.
			return eff + (1-eff)*dark
		}
		return dark
	}
	leftHas := ideal == ClickLeft || ideal == ClickBoth
	rightHas := ideal == ClickRight || ideal == ClickBoth
	pL := pClick(leftHas)
	pR := pClick(rightHas)
	return pL*(1-pR) + pR*(1-pL)
}

// ConditionalState returns a copy of the electron-electron state conditional
// on the given ideal click pattern (nil when that pattern has zero
// probability).
func (s *LinkSampler) ConditionalState(alphaA, alphaB float64, pattern ClickPattern) *quantum.State {
	d := s.distribution(alphaA, alphaB)
	st := d.states[pattern]
	if st == nil {
		return nil
	}
	return st.Copy()
}

// batchSource is the optional fast path of RandomSource: sources that can
// hand out several uniforms at once (sim.RNG does) let Sample draw its five
// per-attempt samples in one call instead of five interface calls.
type batchSource interface {
	Float64Batch(dst []float64)
}

// Sample performs one attempt: the ideal click pattern is drawn from the
// cached distribution, detector noise is applied, and the conditional
// electron state for the ideal pattern is returned on heralded successes.
// The observed outcome is what the midpoint announces; the state reflects
// the true physical collapse, so dark-count false positives naturally yield
// low-fidelity pairs. Failed attempts carry a nil State: nothing consumes
// the post-measurement state of a failure, and attempts outnumber successes
// by orders of magnitude, so materialising a copy per failure would dominate
// the allocation profile of long runs.
func (s *LinkSampler) Sample(alphaA, alphaB float64, rng RandomSource) AttemptResult {
	s.attempts++
	d := s.distribution(alphaA, alphaB)
	// One attempt consumes exactly five uniforms, in a fixed order: the
	// branch selector, then the four detector-noise draws. Batching them
	// preserves the stream order of the one-at-a-time draws exactly. An
	// attempt FailRun or Draw drew ahead has them already.
	u := &s.uBuf
	if s.held {
		if s.heldKey != (alphaKey{alphaA, alphaB}) {
			panic("photonics: held attempt sampled at other bright-state populations")
		}
		s.held = false
	} else {
		draw(rng, u)
	}
	ideal, observed := s.clicks(d, u)
	outcome := OutcomeFromClicks(observed)
	var st quantum.PairState
	if outcome.Success() {
		if s.backend == quantum.BackendBellDiagonal {
			st = quantum.NewBellDiag(d.bell[ideal])
		} else if d.states[ideal] != nil {
			st = d.states[ideal].Copy()
		} else {
			st = quantum.NewState(2)
		}
	}
	return AttemptResult{
		Outcome:         outcome,
		State:           st,
		IdealPattern:    ideal,
		ObservedPattern: observed,
	}
}

// FailRun runs the optical test of up to max attempts at (αA, αB), drawing
// each one's five uniforms from rng exactly as Sample would, and returns how
// many failed before the first success. When one succeeds (success true) its
// uniforms are held, and the next Sample, which must be at the same
// populations, uses them instead of drawing: the sampled attempts are the
// ones Sample would have drawn, in the same stream order. The failed
// attempts count towards Attempts; the success counts when it is sampled.
func (s *LinkSampler) FailRun(alphaA, alphaB float64, rng RandomSource, max uint64) (failed uint64, success bool) {
	if s.held {
		panic("photonics: FailRun with a held attempt not yet sampled")
	}
	d := s.distribution(alphaA, alphaB)
	for failed < max && !s.try(d, rng) {
		failed++
	}
	if failed < max {
		s.held, s.heldKey, success = true, alphaKey{alphaA, alphaB}, true
	}
	s.attempts += failed
	return failed, success
}

// Draw draws the next attempt's five uniforms at (αA, αB) from rng, exactly
// as Sample would, holds them and reports whether that attempt succeeds. The
// next Sample, which must be at the same populations, uses them instead of
// drawing; Fail gives them up as a failed attempt instead. Several links
// folded in lockstep draw each cycle this way, and every link keeps the
// draws of the cycle the lockstep stops before.
func (s *LinkSampler) Draw(alphaA, alphaB float64, rng RandomSource) bool {
	if s.held {
		panic("photonics: Draw with a held attempt not yet sampled")
	}
	s.held, s.heldKey = true, alphaKey{alphaA, alphaB}
	return s.try(s.distribution(alphaA, alphaB), rng)
}

// Fail counts the attempt Draw holds as failed, as its Sample would, and
// drops its uniforms: the next attempt draws anew.
func (s *LinkSampler) Fail() {
	if !s.held {
		panic("photonics: Fail without a held attempt")
	}
	s.held = false
	s.attempts++
}

// try draws one attempt's five uniforms from rng into uBuf and reports
// whether the attempt succeeds at d: the one-cycle draw FailRun and Draw
// share. It spells out draw's batch path, so that a cycle of FailRun's loop
// makes no call but the batch draw and the click test.
func (s *LinkSampler) try(d *attemptDistribution, rng RandomSource) bool {
	if batch, ok := rng.(batchSource); ok {
		batch.Float64Batch(s.uBuf[:])
	} else {
		draw(rng, &s.uBuf)
	}
	_, observed := s.clicks(d, &s.uBuf)
	return OutcomeFromClicks(observed).Success()
}

// draw fills u with the next five uniforms of rng.
func draw(rng RandomSource, u *[5]float64) {
	if batch, ok := rng.(batchSource); ok {
		batch.Float64Batch(u[:])
		return
	}
	for i := range u {
		u[i] = rng.Float64()
	}
}

// clicks turns one attempt's five uniforms into its ideal click pattern,
// picked from the distribution by u[0], and the pattern the detectors
// observe, with u[1..4] as the efficiency and dark-count draws.
func (s *LinkSampler) clicks(d *attemptDistribution, u *[5]float64) (ideal, observed ClickPattern) {
	ideal = ClickNone
	if d.total > 0 {
		x := u[0] * d.total
		for pattern, p := range d.probs {
			x -= p
			if x < 0 {
				ideal = ClickPattern(pattern)
				break
			}
		}
	}
	return ideal, detectorNoise(ideal, s.link.Detectors.Efficiency, s.dark, u[1], u[2], u[3], u[4])
}

// ExpectedSuccessFidelity returns the fidelity (with the heralded Bell
// state) of the conditional electron state averaged over the two success
// outcomes, ignoring dark-count false positives. This is the quantity
// plotted against α in Figure 8 of the paper.
func (s *LinkSampler) ExpectedSuccessFidelity(alphaA, alphaB float64) float64 {
	d := s.distribution(alphaA, alphaB)
	pLeft, pRight := d.probs[ClickLeft], d.probs[ClickRight]
	if pLeft+pRight <= 0 {
		return 0
	}
	f := 0.0
	if st := d.states[ClickLeft]; st != nil {
		f += pLeft * st.BellFidelity(quantum.PsiPlus)
	}
	if st := d.states[ClickRight]; st != nil {
		f += pRight * st.BellFidelity(quantum.PsiMinus)
	}
	return f / (pLeft + pRight)
}
