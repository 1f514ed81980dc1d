// Package core composes the full quantum link layer system of the paper: two
// controllable NV nodes (A and B), the automated heralding station between
// them, the optical and classical channels connecting them, the physical
// layer MHP instances and the link layer EGP instances — all running on one
// deterministic discrete-event simulator.
//
// It is the package a downstream user interacts with: build a Network for
// one of the evaluated scenarios (Lab or QL2020), submit CREATE requests
// from either node, run simulated time, and read the delivered OKs and the
// aggregated performance metrics.
package core

import (
	"fmt"

	"repro/internal/classical"
	"repro/internal/egp"
	"repro/internal/metrics"
	"repro/internal/mhp"
	"repro/internal/nv"
	"repro/internal/photonics"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Node identifiers used throughout the evaluation.
const (
	NodeA = "A"
	NodeB = "B"
	// NodeIDA and NodeIDB are the wire-level node identifiers.
	NodeIDA uint32 = 1
	NodeIDB uint32 = 2
)

// Config selects the hardware scenario and protocol options of one network
// instance.
type Config struct {
	// Scenario selects the hardware model: nv.ScenarioLab or
	// nv.ScenarioQL2020.
	Scenario nv.ScenarioID
	// Backend selects the pair-state representation (dense, the zero
	// value, or the Bell-diagonal fast path).
	Backend quantum.Backend
	// Seed drives every random choice of the run.
	Seed int64
	// Scheduler names the EGP scheduling strategy: "FCFS", "LowerWFQ" or
	// "HigherWFQ".
	Scheduler string
	// ClassicalLossProb is the per-frame loss probability applied to every
	// classical channel (the robustness-study knob; realistic deployments
	// are < 4×10⁻⁸).
	ClassicalLossProb float64
	// EmissionMultiplexing allows measure-directly attempts to overlap with
	// outstanding midpoint replies.
	EmissionMultiplexing bool
	// MaxQueueLen bounds each distributed-queue lane (default 256).
	MaxQueueLen int
	// StorageMargin is the fidelity head-room the FEU reserves for storage
	// and readout noise when converting Fmin to generation parameters.
	StorageMargin float64
	// MinTimeMarginCycles widens the min_time guard before new requests may
	// be served (ablation knob; default 0 uses the propagation-derived
	// value).
	MinTimeMarginCycles uint64
	// DisableMinTime removes the min_time guard entirely (ablation knob).
	DisableMinTime bool
	// QueueWindow is the DQP fairness window.
	QueueWindow int
	// HoldPairs keeps delivered K pairs in memory instead of releasing them
	// to the application immediately (models the CK use case holding
	// entanglement).
	HoldPairs bool
}

// DefaultConfig returns the configuration used by most experiments: the
// given scenario, FCFS scheduling, no classical losses, emission
// multiplexing on.
func DefaultConfig(scenario nv.ScenarioID) Config {
	return Config{
		Scenario:             scenario,
		Seed:                 1,
		Scheduler:            "FCFS",
		Backend:              quantum.BackendFromEnv(),
		EmissionMultiplexing: true,
		MaxQueueLen:          256,
		StorageMargin:        0.05,
	}
}

// Network is a fully wired two-node quantum link.
type Network struct {
	Config   Config
	Sim      *sim.Simulator
	Platform *nv.Platform

	DeviceA *nv.Device
	DeviceB *nv.Device
	Sampler *photonics.LinkSampler

	EGPA *egp.EGP
	EGPB *egp.EGP
	MHPA *mhp.Node
	MHPB *mhp.Node
	Mid  *mhp.Midpoint

	Registry *mhp.PairRegistry

	Collector *metrics.Collector

	// Channels, exposed so experiments can adjust loss probabilities
	// mid-run.
	ChanAtoH *classical.Channel
	ChanHtoA *classical.Channel
	ChanBtoH *classical.Channel
	ChanHtoB *classical.Channel
	PeerLink *classical.Duplex

	// OKs collects every OK event delivered to the higher layer at either
	// node, in delivery order.
	OKs []egp.OKEvent
	// Errors collects request failures.
	Errors []egp.ErrorEvent

	// pendingMeasure matches the two sides' measure-directly outcomes by
	// entanglement ID for QBER accounting.
	pendingMeasure map[uint16]egp.OKEvent

	stopA func()
	stopB func()

	started bool
}

// requestKey builds a collector key unique across both origins.
func requestKey(origin string, createID uint16) uint64 {
	if origin == NodeB {
		return 1<<32 | uint64(createID)
	}
	return uint64(createID)
}

// NewNetwork builds and wires a network for the given configuration. Call
// Start before (or after) submitting requests, then Run to advance simulated
// time.
func NewNetwork(cfg Config) *Network {
	if cfg.MaxQueueLen <= 0 {
		cfg.MaxQueueLen = 256
	}
	platform := nv.NewPlatform(cfg.Scenario)
	s := sim.New(cfg.Seed)
	sampler := photonics.NewLinkSamplerBackend(platform.Optics, cfg.Backend)
	registry := mhp.NewPairRegistry()

	n := &Network{
		Config:         cfg,
		Sim:            s,
		Platform:       platform,
		Sampler:        sampler,
		Registry:       registry,
		Collector:      metrics.NewCollector(0),
		pendingMeasure: make(map[uint16]egp.OKEvent),
	}
	n.DeviceA = nv.NewDevice("A", platform.Gates, platform.CarbonCoupling, platform.MemoryQubits)
	n.DeviceB = nv.NewDevice("B", platform.Gates, platform.CarbonCoupling, platform.MemoryQubits)

	// Classical / optical signalling channels. Node↔midpoint channels carry
	// the GEN/REPLY exchange; the node↔node duplex carries DQP and EGP
	// messages. Both use the configured loss probability.
	loss := cfg.ClassicalLossProb
	n.ChanAtoH = classical.NewChannel("A->H", s, platform.CommDelayAH, loss, func(m classical.Message) { n.Mid.HandleGEN(m) })
	n.ChanBtoH = classical.NewChannel("B->H", s, platform.CommDelayBH, loss, func(m classical.Message) { n.Mid.HandleGEN(m) })
	n.ChanHtoA = classical.NewChannel("H->A", s, platform.CommDelayAH, loss, func(m classical.Message) { n.MHPA.HandleReply(m) })
	n.ChanHtoB = classical.NewChannel("H->B", s, platform.CommDelayBH, loss, func(m classical.Message) { n.MHPB.HandleReply(m) })
	peerDelay := platform.CommDelayAH + platform.CommDelayBH
	n.PeerLink = classical.NewDuplex("A<->B", s, peerDelay, loss,
		func(m classical.Message) { n.EGPB.HandlePeerMessage(m) },
		func(m classical.Message) { n.EGPA.HandlePeerMessage(m) })

	// Link layer instances.
	minTimeMargin := cfg.MinTimeMarginCycles
	n.EGPA = egp.New(egp.Config{
		NodeName:             NodeA,
		NodeID:               NodeIDA,
		PeerID:               NodeIDB,
		IsMaster:             true,
		Sim:                  s,
		Platform:             platform,
		Device:               n.DeviceA,
		Sampler:              sampler,
		Registry:             registry,
		Side:                 nv.SideA,
		Scheduler:            egp.NewScheduler(cfg.Scheduler),
		ToPeer:               n.PeerLink.AtoB,
		OnOK:                 func(ev egp.OKEvent) { n.handleOK(ev) },
		OnError:              func(ev egp.ErrorEvent) { n.handleError(ev) },
		OnExpire:             func(ev egp.ExpireEvent) { n.Collector.ExpireIssued() },
		MaxQueueLen:          cfg.MaxQueueLen,
		QueueWindow:          cfg.QueueWindow,
		EmissionMultiplexing: cfg.EmissionMultiplexing,
		AutoRelease:          !cfg.HoldPairs,
		MinTimeMarginCycles:  minTimeMargin,
	})
	n.EGPB = egp.New(egp.Config{
		NodeName:             NodeB,
		NodeID:               NodeIDB,
		PeerID:               NodeIDA,
		IsMaster:             false,
		Sim:                  s,
		Platform:             platform,
		Device:               n.DeviceB,
		Sampler:              sampler,
		Registry:             registry,
		Side:                 nv.SideB,
		Scheduler:            egp.NewScheduler(cfg.Scheduler),
		ToPeer:               n.PeerLink.BtoA,
		OnOK:                 func(ev egp.OKEvent) { n.handleOK(ev) },
		OnError:              func(ev egp.ErrorEvent) { n.handleError(ev) },
		OnExpire:             func(ev egp.ExpireEvent) { n.Collector.ExpireIssued() },
		MaxQueueLen:          cfg.MaxQueueLen,
		QueueWindow:          cfg.QueueWindow,
		EmissionMultiplexing: cfg.EmissionMultiplexing,
		AutoRelease:          !cfg.HoldPairs,
		MinTimeMarginCycles:  minTimeMargin,
	})
	if cfg.StorageMargin > 0 {
		n.EGPA.FEU().SetStorageMargin(cfg.StorageMargin)
		n.EGPB.FEU().SetStorageMargin(cfg.StorageMargin)
	}

	// Physical layer instances.
	n.MHPA = mhp.NewNode(mhp.NodeConfig{
		Name:       NodeA,
		Sim:        s,
		Generator:  n.EGPA,
		Device:     n.DeviceA,
		Registry:   registry,
		Side:       nv.SideA,
		ToMidpoint: n.ChanAtoH,
		CycleTimeK: platform.CycleTime[nv.RequestKeep],
		CycleTimeM: platform.CycleTime[nv.RequestMeasure],
	})
	n.MHPB = mhp.NewNode(mhp.NodeConfig{
		Name:       NodeB,
		Sim:        s,
		Generator:  n.EGPB,
		Device:     n.DeviceB,
		Registry:   registry,
		Side:       nv.SideB,
		ToMidpoint: n.ChanBtoH,
		CycleTimeK: platform.CycleTime[nv.RequestKeep],
		CycleTimeM: platform.CycleTime[nv.RequestMeasure],
	})
	n.EGPA.SetNode(n.MHPA)
	n.EGPB.SetNode(n.MHPB)
	n.Mid = mhp.NewMidpoint(mhp.MidpointConfig{
		Sim:      s,
		Sampler:  sampler,
		Registry: registry,
		ToA:      n.ChanHtoA,
		ToB:      n.ChanHtoB,
		// Unmatched GENs wait at the station long enough to cover the
		// propagation asymmetry between the two arms plus jitter.
		HoldTime: 2*(platform.CommDelayAH+platform.CommDelayBH) + 200*sim.Microsecond,
	})
	return n
}

// Start launches the periodic MHP cycles at both nodes. It is idempotent.
func (n *Network) Start() {
	if n.started {
		return
	}
	n.started = true
	n.stopA = n.MHPA.Start()
	n.stopB = n.MHPB.Start()
}

// Stop halts the MHP cycles (the simulator can still drain in-flight
// events).
func (n *Network) Stop() {
	if n.stopA != nil {
		n.stopA()
	}
	if n.stopB != nil {
		n.stopB()
	}
	n.started = false
}

// Run advances the simulation by d of simulated time.
func (n *Network) Run(d sim.Duration) {
	n.Start()
	_ = n.Sim.RunFor(d)
	n.Collector.Finish(n.Sim.Now())
}

// EGPFor returns the EGP instance at the named node.
func (n *Network) EGPFor(origin string) *egp.EGP {
	if origin == NodeB {
		return n.EGPB
	}
	return n.EGPA
}

// Submit issues a CREATE request from the higher layer at the given origin
// node ("A" or "B"). It returns the assigned create ID and the immediate
// response code (wire.ErrNone when the request entered the distributed
// queue).
func (n *Network) Submit(origin string, req egp.CreateRequest) (uint16, wire.EGPError) {
	e := n.EGPFor(origin)
	id, code := e.Create(req)
	key := requestKey(origin, id)
	if code == wire.ErrNone {
		n.Collector.RequestSubmitted(key, req.Priority, origin, req.NumPairs, n.Sim.Now())
	}
	return id, code
}

// SetClassicalLoss changes the frame loss probability of every classical
// channel (used by the robustness experiments).
func (n *Network) SetClassicalLoss(p float64) {
	n.ChanAtoH.SetLossProbability(p)
	n.ChanBtoH.SetLossProbability(p)
	n.ChanHtoA.SetLossProbability(p)
	n.ChanHtoB.SetLossProbability(p)
	n.PeerLink.SetLossProbability(p)
}

// SampleQueueLength records the current total distributed-queue length into
// the collector (called periodically by experiments).
func (n *Network) SampleQueueLength() {
	n.Collector.SampleQueueLength(n.EGPA.Queue().TotalLen())
}

// handleOK processes an OK event from either node: it archives it, feeds the
// metrics collector (from the origin side only, so requests are not double
// counted) and matches measure-directly outcomes for QBER accounting.
func (n *Network) handleOK(ev egp.OKEvent) {
	n.OKs = append(n.OKs, ev)
	if ev.OriginIsLocal {
		key := requestKey(ev.Node, ev.CreateID)
		n.Collector.PairDelivered(key, ev.Priority, ev.Node, ev.Fidelity, ev.At)
		if ev.RequestDone {
			n.Collector.RequestCompleted(key, ev.At)
		}
	}
	if !ev.Keep {
		n.matchMeasurement(ev)
	}
}

// matchMeasurement pairs up the two nodes' outcomes for the same entangled
// pair and records the correlation (QBER) when the bases agree.
func (n *Network) matchMeasurement(ev egp.OKEvent) {
	other, ok := n.pendingMeasure[ev.EntanglementID]
	if !ok {
		n.pendingMeasure[ev.EntanglementID] = ev
		return
	}
	delete(n.pendingMeasure, ev.EntanglementID)
	if other.Node == ev.Node {
		return
	}
	if other.MeasureBasis != ev.MeasureBasis {
		return
	}
	var a, b egp.OKEvent
	if ev.Node == NodeA {
		a, b = ev, other
	} else {
		a, b = other, ev
	}
	outcomeA := a.MeasureOutcome
	// Classical correction: a |Ψ−⟩ herald differs from |Ψ+⟩ by a Z on one
	// qubit, which flips the correlation sign in the X and Y bases. Flip one
	// side's outcome so all correlations are accounted against the |Ψ+⟩
	// pattern (Eq. 13).
	if ev.HeraldedPsiMinus && ev.MeasureBasis != quantum.BasisZ {
		outcomeA = 1 - outcomeA
	}
	n.Collector.RecordQBER(ev.Priority, int(ev.MeasureBasis), outcomeA, b.MeasureOutcome)
	n.EGPA.FEU().RecordTestOutcome(int(ev.MeasureBasis), outcomeA, b.MeasureOutcome)
	n.EGPB.FEU().RecordTestOutcome(int(ev.MeasureBasis), outcomeA, b.MeasureOutcome)
}

// handleError archives and accounts request failures (origin side only).
func (n *Network) handleError(ev egp.ErrorEvent) {
	n.Errors = append(n.Errors, ev)
	key := requestKey(ev.Node, ev.CreateID)
	n.Collector.RequestFailed(key, ev.Code.String(), ev.At)
}

// Describe returns a short human-readable summary of the configuration.
func (n *Network) Describe() string {
	return fmt.Sprintf("%s scheduler=%s loss=%g seed=%d", n.Config.Scenario, n.Config.Scheduler, n.Config.ClassicalLossProb, n.Config.Seed)
}
