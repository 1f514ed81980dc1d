package netsim

import (
	"fmt"

	"repro/internal/classical"
	"repro/internal/egp"
	"repro/internal/mhp"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/photonics"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// LinkID identifies one heralded link; it doubles as the classical mux tag.
type LinkID uint64

// The two per-link protocol roles. Within every link the smaller-index node
// plays role A (distributed-queue master, pair side A), mirroring the
// two-node network of the paper; the heralding station only knows roles, not
// global node names.
const (
	roleA = "A"
	roleB = "B"
)

// Config selects the topology, hardware scenario and protocol options of one
// multi-link network.
type Config struct {
	// Spec is the topology (use Chain/Star/Grid/FromEdges).
	Spec Spec
	// Scenario is the hardware model every link runs on.
	Scenario nv.ScenarioID
	// Platform, when non-nil, overrides the scenario's platform parameters —
	// used by validation runs that need modified hardware (e.g. idealised
	// memories for closed-form fidelity checks).
	Platform *nv.Platform
	// Backend selects the pair-state representation every link heralds:
	// quantum.BackendDense (exact, the zero value) or
	// quantum.BackendBellDiagonal (the O(1) fast path).
	Backend quantum.Backend
	// Seed drives every random choice of the run.
	Seed int64
	// Scheduler names the per-link EGP scheduling strategy.
	Scheduler string
	// ClassicalLossProb is the per-frame loss probability of every channel.
	ClassicalLossProb float64
	// MaxQueueLen bounds each distributed-queue lane.
	MaxQueueLen int
	// EmissionMultiplexing allows M attempts to overlap midpoint replies.
	EmissionMultiplexing bool
	// StorageMargin is the FEU fidelity head-room.
	StorageMargin float64
	// HoldPairs keeps delivered K pairs in memory instead of auto-releasing.
	HoldPairs bool
	// QueueSamplePeriod is how often per-link queue occupancy is sampled
	// (default 50 ms of simulated time).
	QueueSamplePeriod sim.Duration
	// Shards selects the engine: ≤1 runs the network on the serial
	// simulator (the default), >1 partitions the topology onto a
	// sim.ShardedEngine with that many parallel worker shards. Results are
	// identical either way: every link draws from its own ID-derived RNG
	// stream and schedules on the shard owning it, so the per-link
	// trajectories do not depend on the partitioning.
	Shards int
	// Trace, when non-nil, is the run's flight recorder: the engine records
	// dispatch batches and sharded windows into per-shard rings and every
	// link's protocol stack records its lifecycle into the rings of the
	// shard owning it. It must have at least max(1, Shards) shards. Nil (the
	// default) disables recording at zero cost beyond one nil check per
	// instrumentation point, leaving the trajectory byte-identical.
	Trace *obs.Tracer
	// Metrics, when non-nil, receives per-layer counters and per-class
	// time-to-pair histograms. Nil disables publication the same way.
	Metrics *obs.Registry
}

// DefaultConfig returns the options used by the network-layer experiments:
// the given topology on the given scenario, FCFS scheduling, no classical
// losses, emission multiplexing on, and the exact dense pair-state backend.
func DefaultConfig(spec Spec, scenario nv.ScenarioID) Config {
	return Config{
		Spec:                 spec,
		Scenario:             scenario,
		Seed:                 1,
		Scheduler:            "FCFS",
		Backend:              quantum.BackendDense,
		EmissionMultiplexing: true,
		MaxQueueLen:          256,
		StorageMargin:        0.05,
	}
}

// Link is one heralded link: a complete EGP+MHP+midpoint protocol stack with
// its own endpoint devices, pair registry and service account, sharing only
// the simulator (and read-only platform/sampler) with other links.
type Link struct {
	ID   LinkID
	Edge Edge // normalized: Edge.A < Edge.B
	Name string

	EGPA, EGPB *egp.EGP
	// Mid is the link's Midpoint Heralding Protocol: both nodes' attempt
	// loop, the fibres to the heralding station and the station itself.
	// MHPA and MHPB are its two nodes.
	Mid              *mhp.Link
	MHPA, MHPB       *mhp.Node
	Registry         *mhp.PairRegistry
	DeviceA, DeviceB *nv.Device

	// Eng is the engine view this link's whole stack runs on: the shard
	// that owns the link (the serial simulator when unsharded), with RNG()
	// pinned to the link's own splitmix64-derived stream. Everything the
	// link schedules or draws goes through Eng, which is what makes its
	// trajectory independent of the shard count.
	Eng sim.Engine
	// Shard is the owning shard index (0 when unsharded).
	Shard int
	// Sampler is the link's private optical attempt sampler (its per-α
	// cache, draw buffer and attempt counter are single-threaded state, so
	// sharded links cannot share one).
	Sampler *photonics.LinkSampler

	// Account holds this link's delivered pairs, latencies, queue samples,
	// errors and EXPIREs; requests are accounted from the origin side only.
	Account LinkAccount

	// Submitted/OKs/Errs count protocol events across both endpoints.
	Submitted, OKs, Errs uint64

	// traceNet is the link's netsim-layer flight-recorder ring (nil when
	// tracing is off); the EGP/MHP rings are handed to those layers directly.
	traceNet *obs.Ring

	// Admin state (fault injection). state stays LinkUp unless a fault plan
	// drives it; Downs/Downtime account completed outages and
	// Recoveries/RecoveryTotal the time from repair to the first delivered
	// pair. All fields are touched only from the link's own shard.
	state         LinkState
	downSince     sim.Time
	repairAt      sim.Time
	awaitRecovery bool
	Downs         uint64
	Downtime      sim.Duration
	Recoveries    uint64
	RecoveryTotal sim.Duration

	// duplex is the node-to-node channel pair, retained so degraded mode
	// can inflate its loss.
	duplex *classical.Duplex

	stopSample func()
}

// EGPFor returns the EGP instance playing the given role ("A" or "B").
func (l *Link) EGPFor(role string) *egp.EGP {
	if role == roleB {
		return l.EGPB
	}
	return l.EGPA
}

// DeviceFor returns the endpoint device playing the given role.
func (l *Link) DeviceFor(role string) *nv.Device {
	if role == roleB {
		return l.DeviceB
	}
	return l.DeviceA
}

// NodeIndex maps a per-link role to the global node index: role A is the
// smaller-index endpoint.
func (l *Link) NodeIndex(role string) int {
	if role == roleB {
		return l.Edge.B
	}
	return l.Edge.A
}

// OtherRole returns the opposite per-link role.
func OtherRole(role string) string {
	if role == roleB {
		return roleA
	}
	return roleB
}

// requestKey builds an account key unique across the link's two origins.
func requestKey(role string, createID uint16) uint64 {
	if role == roleB {
		return 1<<32 | uint64(createID)
	}
	return uint64(createID)
}

// Node is one network node: its name, the links it terminates and the link
// registry demultiplexing incoming classical frames to the right EGP.
type Node struct {
	Index int
	Name  string
	// Mux is the link registry's receive side: every channel arriving at
	// this node delivers into it, and it dispatches by link ID.
	Mux   *classical.Mux
	Links []*Link

	egps map[LinkID]*egp.EGP
}

// EGP returns this node's EGP instance for the given link, or nil when the
// link does not terminate here.
func (n *Node) EGP(id LinkID) *egp.EGP { return n.egps[id] }

// Degree returns how many links terminate at this node.
func (n *Node) Degree() int { return len(n.Links) }

// register wires one link endpoint into the node's link registry.
func (n *Node) register(l *Link, e *egp.EGP) {
	n.Links = append(n.Links, l)
	n.egps[l.ID] = e
	n.Mux.Handle(uint64(l.ID), func(m classical.Message) { e.HandlePeerMessage(m) })
}

// Network is a fully wired multi-link quantum network on one engine: the
// serial simulator by default, or a sharded engine when Config.Shards > 1.
type Network struct {
	Config   Config
	Sim      sim.Engine
	Platform *nv.Platform

	Nodes []*Node
	Links []*Link

	// sharded/part are set when the network runs on a sharded engine.
	sharded *sim.ShardedEngine
	part    *Partition

	// OnLinkOK, when set, observes every link-layer OK event (both
	// endpoints, in delivery order) before the per-link metrics accounting.
	// The network layer uses it to consume held create-and-keep pairs.
	OnLinkOK func(*Link, egp.OKEvent)
	// OnLinkError, when set, observes every link-layer request failure.
	OnLinkError func(*Link, egp.ErrorEvent)
	// OnLinkStateChange, when set, observes every link admin-state
	// transition (after the link's own handling: queues are already drained
	// on a Down transition when it fires). The network layer uses it to
	// invalidate routes and re-path in-flight requests.
	OnLinkStateChange func(*Link, LinkState, LinkState)

	// pairChannels holds the shared node-to-node duplexes carrying tagged
	// DQP/EGP traffic, keyed by the normalized node pair.
	pairChannels map[Edge]*classical.Duplex
	// linksByEdge indexes the links by their normalized endpoints.
	linksByEdge map[Edge]*Link

	traffic *MultiTraffic
	started bool

	// clocks are the MHP cycle clocks in the order they were built: one per
	// engine shard that owns links (shardClock indexes them), or with
	// clockPerNode — a test seam — one per node, never parking it.
	clocks       []*mhp.Clock
	shardClock   map[int]*mhp.Clock
	clockPerNode bool

	// Shared observability handles, all nil when Config.Trace/Metrics are
	// nil: per-layer metric bundles and link-level time-to-pair histograms.
	egpMetrics *obs.EGPMetrics
	mhpMetrics *obs.MHPMetrics
	ttp        *obs.ClassHistograms
	cSubmitted *obs.Counter
	cLinkOKs   *obs.Counter
	cFaults    *obs.Counter
}

// NetworkLayerTag is the mux tag reserved for network-layer frames riding the
// shared node-to-node channels alongside the per-link DQP/EGP traffic. Link
// IDs are small integers, so the maximum tag value can never collide.
const NetworkLayerTag = ^uint64(0)

// NewNetwork builds and wires a multi-link network for the given
// configuration.
func NewNetwork(cfg Config) (*Network, error) { return newNetwork(cfg, false) }

// newNetwork builds the network; clockPerNode starts every MHP node on a
// clock of its own that never parks it, the per-node-ticker trajectory the
// shared clock must reproduce (see mhp.Clock).
func newNetwork(cfg Config, clockPerNode bool) (*Network, error) {
	if err := cfg.Spec.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxQueueLen <= 0 {
		cfg.MaxQueueLen = 256
	}
	if cfg.QueueSamplePeriod <= 0 {
		cfg.QueueSamplePeriod = 50 * sim.Millisecond
	}

	platform := cfg.Platform
	if platform == nil {
		platform = nv.NewPlatform(cfg.Scenario)
	}
	var (
		eng     sim.Engine
		sharded *sim.ShardedEngine
		part    *Partition
	)
	if cfg.Shards > 1 {
		var err error
		part, err = MakePartition(cfg.Spec, cfg.Shards)
		if err != nil {
			return nil, err
		}
		sharded = sim.NewSharded(cfg.Seed, cfg.Shards)
		eng = sharded
	} else {
		eng = sim.New(cfg.Seed)
	}
	nw := &Network{
		Config:       cfg,
		Sim:          eng,
		Platform:     platform,
		sharded:      sharded,
		part:         part,
		pairChannels: make(map[Edge]*classical.Duplex),
		linksByEdge:  make(map[Edge]*Link),
		shardClock:   make(map[int]*mhp.Clock),
		clockPerNode: clockPerNode,
	}
	if cfg.Trace != nil {
		if err := nw.wireTracer(cfg.Trace); err != nil {
			return nil, err
		}
	}
	if cfg.Metrics != nil {
		nw.egpMetrics = obs.NewEGPMetrics(cfg.Metrics)
		nw.mhpMetrics = obs.NewMHPMetrics(cfg.Metrics)
		nw.ttp = obs.NewClassHistograms(cfg.Metrics, "link.ttp_ns")
		nw.cSubmitted = cfg.Metrics.Counter("netsim.submitted")
		nw.cLinkOKs = cfg.Metrics.Counter("netsim.oks")
		nw.cFaults = cfg.Metrics.Counter("netsim.fault_events")
	}

	for i := 0; i < cfg.Spec.Nodes; i++ {
		nw.Nodes = append(nw.Nodes, &Node{
			Index: i,
			Name:  fmt.Sprintf("n%d", i),
			Mux:   classical.NewMux(),
			egps:  make(map[LinkID]*egp.EGP),
		})
	}
	for i, e := range cfg.Spec.sortedEdges() {
		nw.buildLink(LinkID(i), e)
	}
	return nw, nil
}

// wireTracer installs the engine-level flight-recorder hooks: one dispatch
// batch observer per shard (recording into that shard's own sim-layer ring,
// so shard goroutines never share a buffer) and, on the sharded engine, one
// window observer recording window spans.
func (nw *Network) wireTracer(t *obs.Tracer) error {
	need := 1
	if nw.sharded != nil {
		need = nw.sharded.Shards()
	}
	if t.Shards() < need {
		return fmt.Errorf("netsim: tracer has %d shard ring(s), network needs %d", t.Shards(), need)
	}
	if nw.sharded == nil {
		ring := t.Ring(0, obs.LayerSim)
		nw.Sim.(*sim.Simulator).SetBatchObserver(func(at sim.Time, batchLen, pending int) {
			ring.Record(at, obs.KindBatch, 0, int64(batchLen), int64(pending))
		})
		return nil
	}
	for i := 0; i < nw.sharded.Shards(); i++ {
		ring := t.Ring(i, obs.LayerSim)
		track := uint64(i)
		nw.sharded.Shard(i).SetBatchObserver(func(at sim.Time, batchLen, pending int) {
			ring.Record(at, obs.KindBatch, track, int64(batchLen), int64(pending))
		})
	}
	// The window observer runs on the coordinating goroutine while shards
	// are parked, so sharing shard 0's sim-layer ring is race-free.
	winRing := t.Ring(0, obs.LayerSim)
	nw.sharded.SetWindowObserver(func(start, end sim.Time, merged int) {
		winRing.Record(end, obs.KindWindow, obs.BarrierTrack, int64(merged), int64(end.Sub(start)))
	})
	return nil
}

// pairDuplex returns (building on first use) the shared classical duplex
// between the link's two endpoints; both directions deliver into the
// destination node's link registry. The duplex runs on the link's own
// engine: even when the link's endpoints sit in different shards, the
// per-link DQP/EGP handlers on both nodes belong to the link's owning shard,
// so delivery stays shard-local.
func (nw *Network) pairDuplex(l *Link) *classical.Duplex {
	e := l.Edge
	if d, ok := nw.pairChannels[e]; ok {
		return d
	}
	a, b := nw.Nodes[e.A], nw.Nodes[e.B]
	delay := nw.Platform.CommDelayAH + nw.Platform.CommDelayBH
	d := classical.NewDuplex(fmt.Sprintf("%s<->%s", a.Name, b.Name), l.Eng, delay, nw.Config.ClassicalLossProb,
		func(m classical.Message) { b.Mux.Deliver(m) },
		func(m classical.Message) { a.Mux.Deliver(m) })
	nw.pairChannels[e] = d
	return d
}

// buildLink instantiates the full protocol stack of one link and registers
// both endpoints with their nodes.
func (nw *Network) buildLink(id LinkID, e Edge) {
	cfg := nw.Config
	platform := nw.Platform
	nodeA, nodeB := nw.Nodes[e.A], nw.Nodes[e.B]

	l := &Link{
		ID:       id,
		Edge:     e,
		Name:     fmt.Sprintf("%s-%s", nodeA.Name, nodeB.Name),
		Registry: mhp.NewPairRegistry(),
		Sampler:  photonics.NewLinkSamplerBackend(platform.Optics, cfg.Backend),
	}
	// The link's whole stack runs on the shard owning it, drawing from the
	// link's own RNG stream keyed by the stable link ID — the trajectory is
	// therefore the same whether the engine has 1 shard or N.
	var base *sim.Simulator
	if nw.sharded != nil {
		l.Shard = nw.part.LinkShard[id]
		base = nw.sharded.Shard(l.Shard)
	} else {
		base = nw.Sim.(*sim.Simulator)
	}
	l.Eng = sim.WithRNG(base, sim.NewRNG(sim.DeriveSeed(cfg.Seed, 0x11c4, uint64(id))))
	s := l.Eng
	// All of a link's protocol records land in the rings of its owning
	// shard, under the stable link ID as track — which is what keeps the
	// merged trace identical at every shard count.
	var ringEGP, ringMHP *obs.Ring
	if cfg.Trace != nil {
		ringEGP = cfg.Trace.Ring(l.Shard, obs.LayerEGP)
		ringMHP = cfg.Trace.Ring(l.Shard, obs.LayerMHP)
		l.traceNet = cfg.Trace.Ring(l.Shard, obs.LayerNetsim)
	}
	l.DeviceA = nv.NewDevice(fmt.Sprintf("%s/%s", nodeA.Name, l.Name), platform.Gates, platform.CarbonCoupling, platform.MemoryQubits)
	l.DeviceB = nv.NewDevice(fmt.Sprintf("%s/%s", nodeB.Name, l.Name), platform.Gates, platform.CarbonCoupling, platform.MemoryQubits)

	// Node-to-node DQP/EGP traffic multiplexes over the shared pair duplex,
	// tagged with the link ID; the receiving node's registry dispatches it.
	duplex := nw.pairDuplex(l)
	l.duplex = duplex
	portA := classical.TagPort{Tag: uint64(id), Under: duplex.AtoB}
	portB := classical.TagPort{Tag: uint64(id), Under: duplex.BtoA}

	newEGP := func(role string, nodeID, peerID uint32, device *nv.Device, side nv.PairSide, port classical.Port) *egp.EGP {
		return egp.New(egp.Config{
			NodeName:             role,
			NodeID:               nodeID,
			PeerID:               peerID,
			IsMaster:             role == roleA,
			Sim:                  s,
			Platform:             platform,
			Device:               device,
			Sampler:              l.Sampler,
			Registry:             l.Registry,
			Side:                 side,
			Scheduler:            egp.NewScheduler(cfg.Scheduler),
			ToPeer:               port,
			OnOK:                 func(ev egp.OKEvent) { nw.handleOK(l, ev) },
			OnError:              func(ev egp.ErrorEvent) { nw.handleError(l, ev) },
			OnExpire:             func(egp.ExpireEvent) { l.Account.expires++ },
			MaxQueueLen:          cfg.MaxQueueLen,
			EmissionMultiplexing: cfg.EmissionMultiplexing,
			AutoRelease:          !cfg.HoldPairs,
			Trace:                ringEGP,
			TraceID:              uint64(id),
			Metrics:              nw.egpMetrics,
		})
	}
	idA, idB := uint32(e.A+1), uint32(e.B+1)
	l.EGPA = newEGP(roleA, idA, idB, l.DeviceA, nv.SideA, portA)
	l.EGPB = newEGP(roleB, idB, idA, l.DeviceB, nv.SideB, portB)
	if cfg.StorageMargin > 0 {
		l.EGPA.FEU().SetStorageMargin(cfg.StorageMargin)
		l.EGPB.FEU().SetStorageMargin(cfg.StorageMargin)
	}

	gens := [2]mhp.Generator{l.EGPA, l.EGPB}
	if nw.clockPerNode {
		gens = [2]mhp.Generator{neverIdle{l.EGPA}, neverIdle{l.EGPB}}
	}
	l.Mid = mhp.NewLink(mhp.LinkConfig{
		Sim: s, Sampler: l.Sampler, Registry: l.Registry,
		Generators: gens,
		Devices:    [2]*nv.Device{l.DeviceA, l.DeviceB},
		Arms:       [2]sim.Duration{platform.CommDelayAH, platform.CommDelayBH},
		Loss:       cfg.ClassicalLossProb,
		CycleTime:  platform.CycleTime[nv.RequestMeasure],
		HoldTime:   2*(platform.CommDelayAH+platform.CommDelayBH) + 200*sim.Microsecond,
		Trace:      ringMHP, TraceID: uint64(id), Metrics: nw.mhpMetrics,
	})
	l.MHPA, l.MHPB = l.Mid.Node(nv.SideA), l.Mid.Node(nv.SideB)
	l.EGPA.SetNode(l.MHPA)
	l.EGPB.SetNode(l.MHPB)
	nw.joinClock(l.Shard, base, l.MHPA)
	nw.joinClock(l.Shard, base, l.MHPB)

	nodeA.register(l, l.EGPA)
	nodeB.register(l, l.EGPB)
	nw.Links = append(nw.Links, l)
	nw.linksByEdge[e] = l
}

// joinClock registers an MHP node with the cycle clock of its shard's engine,
// building that clock on first use. Registration follows link ID order, A
// before B: the order the nodes are polled in.
//
// The network has one cycle clock, run as one tick event per engine shard.
// Only the first copy's ticks count as executed events; the others are
// scheduled through sim.Uncounted, so Executed — one clock tick per cycle
// plus the protocol's own events — is the same at every shard count.
func (nw *Network) joinClock(shard int, eng *sim.Simulator, n *mhp.Node) {
	c := nw.shardClock[shard]
	if c == nil || nw.clockPerNode {
		var clockEng sim.Engine = eng
		if len(nw.clocks) > 0 {
			clockEng = sim.Uncounted(eng)
		}
		c = mhp.NewClock(clockEng)
		nw.clocks = append(nw.clocks, c)
		nw.shardClock[shard] = c
	}
	c.Add(n)
}

// neverIdle keeps a node polled every cycle (the clockPerNode seam).
type neverIdle struct{ mhp.Generator }

func (neverIdle) Idle() bool { return false }

// ClockTicks returns how many cycles the network's MHP clock has ticked: the
// clock events Executed counts, one per cycle at every shard count.
func (nw *Network) ClockTicks() uint64 {
	if len(nw.clocks) == 0 {
		return 0
	}
	return nw.clocks[0].Ticks()
}

// LinkBetween returns the link connecting two adjacent nodes, or nil when no
// link exists between them.
func (nw *Network) LinkBetween(a, b int) *Link {
	return nw.linksByEdge[Edge{A: a, B: b}.normalized()]
}

// RegisterNetworkHandler points a node's reserved network-layer mux tag at h:
// frames sent through NetworkPort from any neighbour are delivered to it
// after the channel's propagation delay (and loss). The network layer is
// serial-only, so a sharded network refuses.
func (nw *Network) RegisterNetworkHandler(node int, h func(classical.Message)) error {
	if nw.sharded != nil {
		return fmt.Errorf("netsim: the network layer is serial-only; this network runs on %d shards", nw.sharded.Shards())
	}
	nw.Nodes[node].Mux.Handle(NetworkLayerTag, h)
	return nil
}

// NetworkPort returns the network-layer send port from one node to an
// adjacent node, multiplexed over the shared pair channel under the reserved
// tag. The second return value is false when the nodes are not adjacent, or
// when the network is sharded: the network layer is serial-only, and a node
// on a shard boundary does not own the pair channel to every neighbour.
func (nw *Network) NetworkPort(from, to int) (classical.Port, bool) {
	l := nw.LinkBetween(from, to)
	if l == nil || nw.sharded != nil {
		return nil, false
	}
	d := nw.pairDuplex(l)
	ch := d.AtoB
	if from == l.Edge.B {
		ch = d.BtoA
	}
	return classical.TagPort{Tag: NetworkLayerTag, Under: ch}, true
}

// Sharded returns the underlying sharded engine, or nil when the network
// runs on the serial simulator.
func (nw *Network) Sharded() *sim.ShardedEngine { return nw.sharded }

// Attempts returns the total entanglement attempts sampled across all links.
func (nw *Network) Attempts() uint64 {
	var n uint64
	for _, l := range nw.Links {
		n += l.Sampler.Attempts()
	}
	return n
}

// Start launches the MHP cycle clocks, the queue-occupancy sampler of every
// link and the attached workload. It is idempotent.
func (nw *Network) Start() {
	if nw.started {
		return
	}
	nw.started = true
	for _, c := range nw.clocks {
		c.Start()
	}
	for _, l := range nw.Links {
		// One sampling ticker per link, on the link's own shard: the event
		// schedule of each link is then identical at every shard count (a
		// single global ticker would both race across shards and give the
		// sharded run a different event census than the serial one).
		link := l
		l.stopSample = sim.Ticker(l.Eng, nw.Config.QueueSamplePeriod, func() {
			depth := link.EGPA.Queue().TotalLen()
			link.Account.queue.Add(float64(depth))
			link.traceNet.Record(link.Eng.Now(), obs.KindQueueDepth, uint64(link.ID), int64(depth), 0)
		})
	}
	if nw.traffic != nil {
		nw.traffic.Start()
	}
}

// Stop halts MHP cycles, sampling and traffic.
func (nw *Network) Stop() {
	for _, c := range nw.clocks {
		c.Stop()
	}
	for _, l := range nw.Links {
		if l.stopSample != nil {
			l.stopSample()
			l.stopSample = nil
		}
	}
	if nw.traffic != nil {
		nw.traffic.Stop()
	}
	nw.started = false
}

// Run starts the network (if needed), advances simulated time by d and
// closes every link's measurement interval.
func (nw *Network) Run(d sim.Duration) {
	nw.Start()
	_ = nw.Sim.RunFor(d)
	for _, l := range nw.Links {
		l.Account.end = nw.Sim.Now()
	}
}

// Submit issues a CREATE request on the given link from the endpoint playing
// the given role ("A" = lower-index node).
func (nw *Network) Submit(l *Link, role string, req egp.CreateRequest) (uint16, wire.EGPError) {
	if l.state == LinkDown {
		// An administratively down link rejects new work synchronously rather
		// than queueing it into a paused stack.
		return 0, wire.ErrLinkDown
	}
	e := l.EGPFor(role)
	id, code := e.Create(req)
	if code == wire.ErrNone {
		l.Submitted++
		l.traceNet.Record(l.Eng.Now(), obs.KindSubmit, uint64(l.ID), int64(id), int64(req.NumPairs))
		nw.cSubmitted.Inc()
		// The link's own clock, not the network engine's: under sharding a
		// submission fires on the owning shard's loop, where the engine-wide
		// clock is the end of the last window.
		l.Account.submitted(requestKey(role, id), role, req.Priority, req.NumPairs, l.Eng.Now())
	}
	return id, code
}

// handleOK feeds a delivered pair into the link's account (origin side
// only, so pairs are not double counted across the two endpoints).
func (nw *Network) handleOK(l *Link, ev egp.OKEvent) {
	l.OKs++
	if nw.OnLinkOK != nil {
		nw.OnLinkOK(l, ev)
	}
	if !ev.OriginIsLocal {
		return
	}
	if l.awaitRecovery {
		// First delivered pair after a repair closes the link's
		// time-to-recover interval.
		l.awaitRecovery = false
		l.Recoveries++
		l.RecoveryTotal += ev.At.Sub(l.repairAt)
	}
	l.traceNet.Record(ev.At, obs.KindLinkOK, uint64(l.ID), int64(ev.CreateID), int64(ev.PairsRemaining))
	nw.cLinkOKs.Inc()
	nw.ttp.Observe(ev.Priority, ev.At.Sub(ev.CreateTime))
	l.Account.delivered(requestKey(ev.Node, ev.CreateID), ev.Node, ev.Priority, ev.Fidelity, ev.At, ev.RequestDone)
}

// handleError records a failed request (origin side only; error events are
// only emitted at the origin).
func (nw *Network) handleError(l *Link, ev egp.ErrorEvent) {
	l.Errs++
	if nw.OnLinkError != nil {
		nw.OnLinkError(l, ev)
	}
	l.Account.failed(requestKey(ev.Node, ev.CreateID), ev.Code)
}

// Describe summarises the network configuration.
func (nw *Network) Describe() string {
	return fmt.Sprintf("%s on %s scheduler=%s loss=%g seed=%d",
		nw.Config.Spec, nw.Config.Scenario, nw.Config.Scheduler, nw.Config.ClassicalLossProb, nw.Config.Seed)
}
