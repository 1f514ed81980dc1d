package experiments

import (
	"math"

	"repro/internal/egp"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/workload"
)

// linkRun is what one protocol trial measured: the link's account, the link
// itself (its protocol counters), the QBER of the measure-directly pairs whose
// two ends agreed on a basis, and the A end's fidelity estimation unit.
type linkRun struct {
	*netsim.LinkAccount
	link *netsim.Link
	qber *[egp.NumQueues]egp.QBERCounter
	feu  *egp.FidelityEstimationUnit
}

// runProtocolTrial runs the paper's link for one trial (protocolLink) for
// the trial's simulated duration.
func runProtocolTrial(opt Options, t Trial, classes []workload.ClassSpec, configure func(*netsim.Config)) linkRun {
	nw, matcher := protocolLink(opt, t, classes, configure)
	nw.Run(sim.DurationSeconds(opt.SimulatedSeconds))
	l := nw.Links[0]
	return linkRun{LinkAccount: &l.Account, link: l, qber: &matcher.qber, feu: l.EGPA.FEU()}
}

// protocolLink builds the paper's link for one trial: a two-node netsim
// network (A, the heralding station, B) on the trial's scenario, seeded from
// the trial's coordinates, optionally adjusted by configure, with the QBER
// matcher as its OnLinkOK hook and the classes attached through
// netsim.MultiTraffic.
func protocolLink(opt Options, t Trial, classes []workload.ClassSpec, configure func(*netsim.Config)) (*netsim.Network, *qberMatcher) {
	cfg := netsim.DefaultConfig(netsim.Chain(2), t.Scenario)
	cfg.Seed = t.DeriveSeed(opt.Seed)
	if configure != nil {
		configure(&cfg)
	}
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		panic(err) // Chain(2) always validates
	}
	matcher := newQBERMatcher(nw.Links[0])
	nw.OnLinkOK = matcher.onLinkOK
	if _, err := nw.AttachWorkload(classes); err != nil {
		panic(err) // the runners' classes always validate
	}
	return nw, matcher
}

// qberMatcher pairs the two ends' measure-directly outcomes of one link by
// entanglement ID. When the bases agree it records the correlation into its
// per-priority counters (the QBER behind Sec. 6.2's fidelity estimate) and
// feeds it to both ends' FEU test rounds.
type qberMatcher struct {
	link    *netsim.Link
	pending map[uint16]egp.OKEvent
	qber    [egp.NumQueues]egp.QBERCounter
}

func newQBERMatcher(link *netsim.Link) *qberMatcher {
	return &qberMatcher{link: link, pending: make(map[uint16]egp.OKEvent)}
}

// onLinkOK is the network's OnLinkOK hook.
func (m *qberMatcher) onLinkOK(_ *netsim.Link, ev egp.OKEvent) {
	if ev.Keep {
		return
	}
	other, ok := m.pending[ev.EntanglementID]
	if !ok {
		m.pending[ev.EntanglementID] = ev
		return
	}
	delete(m.pending, ev.EntanglementID)
	if other.Node == ev.Node || other.MeasureBasis != ev.MeasureBasis {
		return
	}
	a, b := other, ev
	if ev.Node == "A" {
		a, b = ev, other
	}
	outcomeA := a.MeasureOutcome
	// Classical correction: a |Ψ−⟩ herald differs from |Ψ+⟩ by a Z on one
	// qubit, which flips the correlation sign in the X and Y bases. Flip one
	// side's outcome so all correlations are accounted against the |Ψ+⟩
	// pattern (Eq. 13).
	if ev.HeraldedPsiMinus && ev.MeasureBasis != quantum.BasisZ {
		outcomeA = 1 - outcomeA
	}
	basis := int(ev.MeasureBasis)
	m.qber[ev.Priority].Record(basis, outcomeA, b.MeasureOutcome)
	m.link.EGPA.FEU().RecordTestOutcome(basis, outcomeA, b.MeasureOutcome)
	m.link.EGPB.FEU().RecordTestOutcome(basis, outcomeA, b.MeasureOutcome)
}

// relativeDifference implements footnote 2 of the paper:
// |m1 − m2| / max(|m1|, |m2|), with 0 when both are zero.
func relativeDifference(m1, m2 float64) float64 {
	denom := math.Max(math.Abs(m1), math.Abs(m2))
	if denom == 0 {
		return 0
	}
	return math.Abs(m1-m2) / denom
}

// fairnessReport compares what the requests originating at the two ends of
// a link received (Sec. 6.2), each metric by its relative difference.
type fairnessReport struct {
	fidelity, throughput, latency, pairs float64
}

// originFairness compares origins a and b over a measured interval of the
// given length: mean delivered fidelity, throughput, mean request latency
// and delivered pairs.
func originFairness(a, b netsim.OriginAccount, seconds float64) fairnessReport {
	mean := func(sum float64, n int) float64 {
		if n == 0 {
			return 0
		}
		return sum / float64(n)
	}
	return fairnessReport{
		fidelity:   relativeDifference(mean(a.FidelitySum, a.Pairs), mean(b.FidelitySum, b.Pairs)),
		throughput: relativeDifference(obs.SafeRate(float64(a.Pairs), seconds), obs.SafeRate(float64(b.Pairs), seconds)),
		latency:    relativeDifference(mean(a.LatencySum, a.Completed), mean(b.LatencySum, b.Completed)),
		pairs:      relativeDifference(float64(a.Pairs), float64(b.Pairs)),
	}
}
