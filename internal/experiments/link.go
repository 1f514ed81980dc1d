package experiments

import (
	"repro/internal/egp"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/workload"
)

// runProtocolTrial runs the paper's link for one trial: a two-node netsim
// network (A, the heralding station, B) on the trial's scenario, seeded
// from the trial's coordinates, optionally adjusted by configure, driven
// by the per-cycle generator (random origin) for the trial's simulated
// duration. It returns the link's collector, which also holds the matched
// QBER.
func runProtocolTrial(opt Options, t Trial, classes []workload.Class, configure func(*netsim.Config)) *metrics.Collector {
	cfg := netsim.DefaultConfig(netsim.Chain(2), t.Scenario)
	cfg.Seed = t.DeriveSeed(opt.Seed)
	if configure != nil {
		configure(&cfg)
	}
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		panic(err) // Chain(2) always validates
	}
	link := nw.Links[0]
	nw.OnLinkOK = newQBERMatcher(link).onLinkOK
	gen := newGenerator(nw, link, workload.OriginRandom, classes)
	nw.Start()
	gen.start()
	nw.Run(sim.DurationSeconds(opt.SimulatedSeconds))
	gen.stop()
	return link.Collector
}

// generator issues the paper's per-cycle CREATE arrivals (Section 6) into
// one link: in every MHP cycle, for each class, it draws a pair count k
// uniform in [1, k_max] (or the class's fixed count), accepts a request
// with probability f·psucc/(E·k), and picks the origin. The draw order —
// k, then accept, then origin — is part of every committed table.
//
// Accepted request sizes are therefore ∝ 1/k, not uniform: the offered
// pairs per cycle match workload.PoissonClass, the request sizes do not.
type generator struct {
	nw      *netsim.Network
	link    *netsim.Link
	classes []workload.Class
	origin  workload.Origin
	// baseProb[i] is class i's per-cycle arrival probability before
	// dividing by the drawn k.
	baseProb []float64
	halt     func()
}

func newGenerator(nw *netsim.Network, link *netsim.Link, origin workload.Origin, classes []workload.Class) *generator {
	g := &generator{nw: nw, link: link, classes: classes, origin: origin}
	feu := link.EGPA.FEU()
	for _, c := range classes {
		g.baseProb = append(g.baseProb, workload.PerCycleProbability(feu, nw.Platform, c.Keep(), c.Fraction, c.MinFidelity))
	}
	return g
}

// start begins sampling arrivals once per MHP cycle on the link's engine.
func (g *generator) start() {
	g.halt = sim.Ticker(g.link.Eng, g.nw.Platform.CycleTime[nv.RequestMeasure], g.tick)
}

// stop halts arrivals.
func (g *generator) stop() {
	if g.halt != nil {
		g.halt()
		g.halt = nil
	}
}

func (g *generator) tick() {
	rng := g.link.Eng.RNG()
	for i, c := range g.classes {
		if c.Fraction <= 0 {
			continue
		}
		k := c.FixedPairs
		if k <= 0 {
			k = 1
			if c.MaxPairs > 1 {
				k = 1 + rng.Intn(c.MaxPairs)
			}
		}
		if !rng.Bernoulli(g.baseProb[i] / float64(k)) {
			continue
		}
		role := "A"
		switch g.origin {
		case workload.OriginB:
			role = "B"
		case workload.OriginRandom:
			if rng.Bernoulli(0.5) {
				role = "B"
			}
		}
		g.nw.Submit(g.link, role, egp.CreateRequest{
			NumPairs:    k,
			Keep:        c.Keep(),
			MinFidelity: c.MinFidelity,
			MaxTime:     c.MaxTime,
			Priority:    c.Priority,
			PurposeID:   uint16(1000 + c.Priority),
			Consecutive: c.Priority == egp.PriorityNL || c.Priority == egp.PriorityMD,
		})
	}
}

// qberMatcher pairs the two ends' measure-directly outcomes of one link by
// entanglement ID. When the bases agree it records the correlation into
// the link's collector (the QBER behind Sec. 6.2's fidelity estimate) and
// feeds it to both ends' FEU test rounds.
type qberMatcher struct {
	link    *netsim.Link
	pending map[uint16]egp.OKEvent
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
	m.link.Collector.RecordQBER(ev.Priority, basis, outcomeA, b.MeasureOutcome)
	m.link.EGPA.FEU().RecordTestOutcome(basis, outcomeA, b.MeasureOutcome)
	m.link.EGPB.FEU().RecordTestOutcome(basis, outcomeA, b.MeasureOutcome)
}
