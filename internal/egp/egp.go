package egp

import (
	"math"

	"repro/internal/classical"
	"repro/internal/mhp"
	"repro/internal/nv"
	"repro/internal/obs"
	"repro/internal/photonics"
	"repro/internal/quantum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// CreateRequest is the link layer service interface of Section 4.1.1: the
// parameters a higher layer passes with a CREATE call.
type CreateRequest struct {
	RemoteNodeID uint32
	NumPairs     int
	Keep         bool // true = create-and-keep (K), false = measure-directly (M)
	MinFidelity  float64
	MaxTime      sim.Duration // 0 = no timeout
	PurposeID    uint16
	Priority     int // PriorityNL, PriorityCK or PriorityMD
	Atomic       bool
	Consecutive  bool
}

// OKEvent is delivered to the higher layer for every successfully generated
// pair (Section 4.1.2).
type OKEvent struct {
	Node     string
	CreateID uint16
	QueueID  wire.AbsoluteQueueID
	// EntanglementID is the network-unique identifier (origin, peer, MHP
	// sequence number).
	EntanglementID uint16
	Keep           bool
	Priority       int
	OriginIsLocal  bool
	LogicalQubit   nv.QubitID
	// Fidelity is the true delivered fidelity of the pair (simulation
	// ground truth, used by the evaluation); Goodness is the FEU estimate
	// reported in the OK message.
	Fidelity float64
	Goodness float64
	// MeasureOutcome/MeasureBasis are set for M-type pairs.
	MeasureOutcome int
	MeasureBasis   quantum.BasisLabel
	// HeraldedPsiMinus records that the midpoint announced |Ψ−⟩ (rather
	// than |Ψ+⟩) for this pair; consumers of measure-directly outcomes use
	// it to apply the classical correction when comparing correlations.
	HeraldedPsiMinus bool
	// Pair is the delivered entangled pair, set for create-and-keep requests
	// when AutoRelease is off: the higher layer (e.g. the network layer's
	// swap engine) owns the stored qubit until it releases it from the
	// device. Nil for measure-directly pairs and auto-released ones.
	Pair           *nv.EntangledPair
	PairsRemaining int
	RequestDone    bool
	CreateTime     sim.Time
	At             sim.Time
}

// ErrorEvent reports request failures to the higher layer.
type ErrorEvent struct {
	Node     string
	CreateID uint16
	QueueID  wire.AbsoluteQueueID
	Code     wire.EGPError
	Priority int
	At       sim.Time
}

// Config collects the dependencies of one node's EGP instance.
type Config struct {
	NodeName string
	NodeID   uint32
	PeerID   uint32
	IsMaster bool

	Sim      sim.Engine
	Platform *nv.Platform
	Device   *nv.Device
	Sampler  *photonics.LinkSampler
	Side     nv.PairSide

	Scheduler Scheduler
	// ToPeer carries DQP/EGP frames to the peer EGP of the same link. Any
	// classical.Port works: netsim passes a TagPort over the shared
	// node-to-node channel, the package's tests a direct Channel.
	ToPeer classical.Port

	OnOK    func(OKEvent)
	OnError func(ErrorEvent)

	// MaxQueueLen bounds each priority lane (256 in the paper's overload
	// study).
	MaxQueueLen int
	// EmissionMultiplexing allows M-type attempts to be triggered before the
	// previous attempt's REPLY has arrived (Section 5.2.5).
	EmissionMultiplexing bool
	// AutoRelease frees the local qubit as soon as the OK is issued,
	// modelling a higher layer that consumes pairs immediately.
	AutoRelease bool

	// Trace, when non-nil, records the OK/error/expiry lifecycle into the
	// flight recorder under track TraceID (the link ID). Nil disables
	// recording at the cost of one branch per lifecycle event.
	Trace   *obs.Ring
	TraceID uint64
}

// maxOutstandingM caps the number of in-flight multiplexed M attempts.
const maxOutstandingM = 64

// EGP is one node's link layer protocol instance. It implements
// mhp.Generator so the physical layer can poll it every cycle it has work.
type EGP struct {
	cfg Config

	queue *DistributedQueue
	qmm   *QuantumMemoryManager
	feu   *FidelityEstimationUnit

	// node is the MHP node polling this EGP (nil when the EGP is driven by
	// hand); cycle is the cycle of the latest PollTrigger call.
	node        *mhp.Node
	cycle       uint64
	createSeq   uint16
	expectedSeq uint16

	// Outstanding attempt bookkeeping. Deadlines guard against lost REPLY
	// frames permanently blocking generation.
	outstandingK bool
	kDeadline    sim.Time
	// mAttemptTimes is a fixed ring of the trigger times of the outstanding
	// M attempts: outstandingM of them, oldest at mHead.
	outstandingM  int
	mAttemptTimes [maxOutstandingM]sim.Time
	mHead         int
	busyUntil     sim.Time
	// kResumeCycle is the earliest cycle at which the next create-and-keep
	// attempt may be triggered after a success; it is computed identically
	// at both nodes (from the attempt cycle and platform constants) so they
	// stay aligned on the K attempt grid without extra communication.
	kResumeCycle uint64

	// reapScratch is the reusable expired-item collection buffer of
	// reapExpired.
	reapScratch []*QueueItem

	// The poll's platform constants, computed once: the K attempt stride in
	// base cycles, the carbon re-initialisation window (busy for the first
	// reinitBusy cycles of every reinitPeriod; a zero period means never),
	// how long an attempt waits for its REPLY and the base cycle.
	kStride                  uint64
	reinitPeriod, reinitBusy uint64
	replyDeadline            sim.Duration
	period                   sim.Duration

	// Pending EXPIRE exchanges awaiting acknowledgement.
	pendingExpires map[wire.AbsoluteQueueID]sim.EventID

	// Statistics.
	creates, okCount, errCount, expiresSent, expiresReceived uint64
}

// New constructs an EGP instance.
func New(cfg Config) *EGP {
	if cfg.Sim == nil || cfg.Platform == nil || cfg.Device == nil || cfg.Sampler == nil || cfg.ToPeer == nil {
		panic("egp: incomplete configuration")
	}
	// ToPeer is an interface; a nil *classical.Channel inside it would slip
	// past the nil check above and only crash at the first send.
	if ch, ok := cfg.ToPeer.(*classical.Channel); ok && ch == nil {
		panic("egp: nil ToPeer channel")
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = NewFCFS()
	}
	e := &EGP{
		cfg:            cfg,
		qmm:            NewQMM(cfg.Device),
		feu:            NewFEU(cfg.Platform, cfg.Sampler),
		expectedSeq:    1,
		pendingExpires: make(map[wire.AbsoluteQueueID]sim.EventID),
		kStride:        kAttemptStride(cfg.Platform),
		replyDeadline:  8*cfg.Platform.MidpointRoundTrip(cfg.NodeName) + 2*sim.Millisecond,
		period:         cfg.Platform.CycleTime[nv.RequestMeasure],
	}
	e.reinitPeriod, e.reinitBusy = carbonReinitCycles(cfg.Platform)
	e.queue = NewDistributedQueue(QueueConfig{
		NodeName: cfg.NodeName,
		IsMaster: cfg.IsMaster,
		Sim:      cfg.Sim,
		ToPeer:   cfg.ToPeer,
		MaxLen:   cfg.MaxQueueLen,
		OnConfirmed: func(item *QueueItem) {
			// Requests that arrived from the peer carry only the requested
			// minimum fidelity; each node queries its own FEU for the
			// generation parameters (Section 5.2.5), which is deterministic
			// and therefore consistent across the two nodes.
			if item.Alpha == 0 {
				if alpha, ok := e.feu.AlphaForFidelity(item.MinFidelity); ok {
					item.Alpha = alpha
				}
			}
			// A confirmed handshake is how a peer's ADD, or the ACK of a
			// slave's own ADD, puts an item in this node's queue.
			e.wake()
		},
		OnRejected: func(item *QueueItem, code wire.EGPError) {
			e.wake()
			e.emitError(item.CreateID, item.ID, int(item.Priority), code)
		},
	})
	e.queue.SetStampFunc(cfg.Scheduler.Stamp)
	return e
}

// Queue exposes the distributed queue (read-mostly; used by experiments to
// sample queue length).
func (e *EGP) Queue() *DistributedQueue { return e.queue }

// FEU exposes the fidelity estimation unit.
func (e *EGP) FEU() *FidelityEstimationUnit { return e.feu }

// QMM exposes the quantum memory manager.
func (e *EGP) QMM() *QuantumMemoryManager { return e.qmm }

// Stats returns protocol counters: CREATE calls, OKs, errors, EXPIREs sent
// and received.
func (e *EGP) Stats() (creates, oks, errs, expSent, expRecv uint64) {
	return e.creates, e.okCount, e.errCount, e.expiresSent, e.expiresReceived
}

// SetNode connects the EGP to the MHP node that polls it: the EGP wakes the
// node when its queue gains an item, and reads the current cycle from it.
func (e *EGP) SetNode(n *mhp.Node) { e.node = n }

// Cycle returns the MHP cycle this EGP was last polled at. With an MHP node
// it comes from the node's clock (mhp.Node.PolledCycle), which also counts
// the polls a parked node skips; a hand-driven EGP returns the cycle of its
// latest PollTrigger call.
func (e *EGP) Cycle() uint64 {
	if e.node != nil {
		return e.node.PolledCycle()
	}
	return e.cycle
}

// Quiet implements mhp.Generator: the first cycle at which the pick may
// change (pickBound; WFQ's virtual time stays put with it), reapLostAttempts
// acts, the node is no longer busy or, with nothing outstanding (the pick
// is a K item or none), a cycle is K-eligible. A higher layer frees an
// occupied communication qubit without an event here: then every poll may
// act.
func (e *EGP) Quiet(cycle uint64) uint64 {
	if e.queue.TotalLen() == 0 && !e.outstandingK && e.outstandingM == 0 {
		return math.MaxUint64
	}
	if !e.cfg.Device.CommFree() {
		return 0
	}
	now := e.cfg.Sim.Now()
	// after returns the first cycle polled after t.
	after := func(t sim.Time) uint64 { return cycle + uint64(t.Sub(now)/e.period) + 1 }
	next := e.pickBound(cycle)
	if e.outstandingK {
		next = min(next, after(e.kDeadline))
	}
	if e.outstandingM > 0 {
		next = min(next, after(e.mAttemptTimes[e.mHead].Add(e.replyDeadline)))
	}
	if now < e.busyUntil {
		next = min(next, after(e.busyUntil-1))
	} else if !e.outstandingK && e.outstandingM == 0 {
		next = min(next, e.nextKEligible(cycle+1))
	}
	return next
}

// pickBound returns the first cycle after cycle at which the scheduler's pick
// may change without an event: after the queue's earliest timeout, or a
// confirmed item's ScheduleCycle; math.MaxUint64 if neither comes.
func (e *EGP) pickBound(cycle uint64) uint64 {
	next := min(e.queue.earliestTimeout(), math.MaxUint64-1) + 1
	for p := 0; p < NumQueues; p++ {
		for _, it := range e.queue.Items(p) {
			if it.confirmed && it.PairsLeft > 0 && it.ScheduleCycle > cycle {
				next = min(next, it.ScheduleCycle)
			}
		}
	}
	return next
}

// wake returns the EGP's MHP node to its clock's active set.
func (e *EGP) wake() {
	if e.node != nil {
		e.node.Wake()
	}
}

// minTimeCycles returns the number of MHP cycles to wait before a new
// request may start: enough for the ADD/ACK handshake to complete at both
// nodes.
func (e *EGP) minTimeCycles() uint64 {
	rtt := 2 * e.cfg.ToPeer.Delay()
	cycleTime := e.cfg.Platform.CycleTime[nv.RequestMeasure]
	return uint64(rtt/cycleTime) + 2
}

// Create submits a new entanglement request from the higher layer at this
// node (Section 5.2.5). It returns the CreateID assigned to the request and
// an immediate error code (ErrNone when the request was accepted into the
// distributed queue).
func (e *EGP) Create(req CreateRequest) (uint16, wire.EGPError) {
	e.wake()
	e.creates++
	createID := e.createSeq
	e.createSeq++

	if req.NumPairs <= 0 {
		req.NumPairs = 1
	}
	if req.Priority < 0 || req.Priority >= NumQueues {
		req.Priority = PriorityMD
	}

	// Fidelity feasibility (UNSUPP).
	alpha, ok := e.feu.AlphaForFidelity(req.MinFidelity)
	if !ok {
		e.emitError(createID, wire.AbsoluteQueueID{}, req.Priority, wire.ErrUnsupported)
		return createID, wire.ErrUnsupported
	}
	// Completion-time feasibility (UNSUPP).
	if req.MaxTime > 0 {
		est := e.feu.EstimateCompletionSeconds(req.NumPairs, alpha, req.Keep)
		if math.IsInf(est, 1) || est > req.MaxTime.Seconds() {
			e.emitError(createID, wire.AbsoluteQueueID{}, req.Priority, wire.ErrUnsupported)
			return createID, wire.ErrUnsupported
		}
	}
	// Atomic feasibility (MEMEXCEEDED).
	if req.Atomic && req.Keep {
		ever, _ := e.qmm.CanSatisfyAtomic(req.NumPairs)
		if !ever {
			e.emitError(createID, wire.AbsoluteQueueID{}, req.Priority, wire.ErrMemExceeded)
			return createID, wire.ErrMemExceeded
		}
	}

	scheduleCycle := e.Cycle() + e.minTimeCycles()
	var timeoutCycle uint64
	if req.MaxTime > 0 {
		cycleTime := e.cfg.Platform.CycleTime[nv.RequestMeasure]
		timeoutCycle = scheduleCycle + uint64(req.MaxTime/cycleTime) + 1
	}
	estPerPair := e.feu.EstimateCompletionCycles(1, alpha, req.Keep)
	if math.IsInf(estPerPair, 1) || estPerPair > math.MaxUint32 {
		estPerPair = math.MaxUint32
	}

	item := &QueueItem{
		CreateID:         createID,
		PurposeID:        req.PurposeID,
		Priority:         uint8(req.Priority),
		NumPairs:         uint16(req.NumPairs),
		PairsLeft:        uint16(req.NumPairs),
		Keep:             req.Keep,
		Atomic:           req.Atomic,
		Consecutive:      req.Consecutive,
		MinFidelity:      req.MinFidelity,
		Alpha:            alpha,
		CreateTime:       e.cfg.Sim.Now(),
		ScheduleCycle:    scheduleCycle,
		TimeoutCycle:     timeoutCycle,
		EstCyclesPerPair: uint32(estPerPair),
	}
	if err := e.queue.Add(item); err != nil {
		e.emitError(createID, wire.AbsoluteQueueID{}, req.Priority, wire.ErrOutOfMemory)
		return createID, wire.ErrOutOfMemory
	}
	return createID, wire.ErrNone
}

// emitError counts and reports a request-level failure: of a queued item
// (its queue ID set), or of a CREATE refused before it was queued (the zero
// queue ID).
func (e *EGP) emitError(createID uint16, queueID wire.AbsoluteQueueID, priority int, code wire.EGPError) {
	e.errCount++
	e.cfg.Trace.Record(e.cfg.Sim.Now(), obs.KindEGPError, e.cfg.TraceID, int64(createID), int64(code))
	if e.cfg.OnError == nil {
		return
	}
	e.cfg.OnError(ErrorEvent{
		Node:     e.cfg.NodeName,
		CreateID: createID,
		QueueID:  queueID,
		Code:     code,
		Priority: priority,
		At:       e.cfg.Sim.Now(),
	})
}

// localOrigin reports whether a queue item was created at this node.
func (e *EGP) localOrigin(item *QueueItem) bool { return item.OriginMaster == e.cfg.IsMaster }

// reapExpired removes items timed out at the given cycle, emitting TIMEOUT
// errors for locally originated requests. It runs at every poll, so it
// returns at once until the queue's earliest timeout has passed, and then
// collects into the reusable scratch slice, allocating nothing.
func (e *EGP) reapExpired(cycle uint64) {
	if cycle <= e.queue.earliestTimeout() {
		return
	}
	e.reapScratch = e.reapScratch[:0]
	for p := 0; p < NumQueues; p++ {
		for _, it := range e.queue.Items(p) {
			if it.Expired(cycle) {
				e.reapScratch = append(e.reapScratch, it)
			}
		}
	}
	for _, it := range e.reapScratch {
		e.queue.Remove(it.ID)
		if e.localOrigin(it) {
			e.emitError(it.CreateID, it.ID, int(it.Priority), wire.ErrTimeout)
		}
	}
}

// FailAll drains the whole request queue with per-request errors of the
// given code and releases all in-flight attempt bookkeeping: the link-down
// path of fault injection. Only locally originated requests get errors (the
// peer EGP drains its own queue), and pending DQP handshakes and EXPIRE
// retransmissions are cancelled so no timer outlives the outage.
func (e *EGP) FailAll(code wire.EGPError) {
	e.wake()
	e.queue.FailPending(code)
	items := append([]*QueueItem(nil), e.queue.AllItems()...)
	for _, it := range items {
		e.queue.Remove(it.ID)
		if e.localOrigin(it) {
			e.emitError(it.CreateID, it.ID, int(it.Priority), code)
		}
	}
	if e.outstandingK {
		e.outstandingK = false
		e.qmm.ReleaseComm()
	}
	e.outstandingM = 0
	// Cancelling an event has no observable trajectory effect, so plain map
	// iteration is fine here.
	for id, ev := range e.pendingExpires {
		ev.Cancel()
		delete(e.pendingExpires, id)
	}
}

// kEligible reports whether this node's own state lets a create-and-keep
// attempt start at cycle: a cycle of the K attempt grid, at or after the
// resume cycle of the last success, outside the carbon re-initialisation
// window, with the communication qubit free. PollTrigger and Steady both
// decide K attempts by it.
func (e *EGP) kEligible(cycle uint64) bool {
	return cycle%e.kStride == 0 && cycle >= e.kResumeCycle &&
		!e.inCarbonReinitWindow(cycle) && e.qmm.CommAvailable()
}

// nextKEligible returns a cycle from cycle on no later than the first at
// which kEligible holds while the communication qubit stays free: on the K
// grid, from the resume cycle and the end of a re-initialisation window on.
func (e *EGP) nextKEligible(cycle uint64) uint64 {
	cycle = max(cycle, e.kResumeCycle)
	if e.inCarbonReinitWindow(cycle) {
		cycle += e.reinitBusy - cycle%e.reinitPeriod
	}
	return (cycle + e.kStride - 1) / e.kStride * e.kStride
}

// inCarbonReinitWindow reports whether the hardware is busy re-initialising
// its carbon memory at the given cycle (Appendix D.3.3: 330 µs every
// 3500 µs), which blocks create-and-keep attempts.
func (e *EGP) inCarbonReinitWindow(cycle uint64) bool {
	return e.reinitPeriod != 0 && cycle%e.reinitPeriod < e.reinitBusy
}

// carbonReinitCycles returns the platform's carbon re-initialisation period
// and duration in base (M-type) cycles; a zero period means the platform
// never re-initialises.
func carbonReinitCycles(p *nv.Platform) (period, busy uint64) {
	cycleTime := p.CycleTime[nv.RequestMeasure]
	if p.CarbonReinitPeriod <= 0 || p.CarbonReinitDuration <= 0 || cycleTime <= 0 {
		return 0, 0
	}
	return uint64(p.CarbonReinitPeriod / cycleTime), uint64(p.CarbonReinitDuration / cycleTime)
}

// PollTrigger implements mhp.Generator: it is called by the physical layer
// at every MHP cycle its node polls (see Quiet) and decides whether
// (and how) to attempt entanglement generation.
func (e *EGP) PollTrigger(cycle uint64) mhp.PollDecision {
	e.cycle = cycle
	now := e.cfg.Sim.Now()
	e.reapExpired(cycle)
	e.reapLostAttempts(now)

	if now < e.busyUntil {
		return mhp.PollDecision{}
	}
	item := e.cfg.Scheduler.Next(e.queue, cycle)
	if item == nil {
		return mhp.PollDecision{}
	}
	if item.Keep {
		// Create-and-keep attempts are paced on a shared deterministic grid:
		// only every kAttemptStride-th cycle may trigger one (the hardware's
		// 1/r_attempt for K), and after a success both nodes wait until the
		// same resume cycle. This keeps the two nodes triggering in the same
		// MHP cycle even though their midpoint replies arrive at different
		// times over asymmetric fibre arms.
		if e.outstandingK || e.outstandingM > 0 || !e.kEligible(cycle) {
			return mhp.PollDecision{}
		}
		storage, haveStorage := e.qmm.PickStorage()
		if !haveStorage {
			storage = nv.CommQubitID
		}
		if !e.qmm.ReserveComm() {
			return mhp.PollDecision{}
		}
		e.outstandingK = true
		e.kDeadline = now.Add(e.replyDeadline)
		return mhp.PollDecision{
			Attempt:      true,
			QueueID:      item.ID,
			Keep:         true,
			Alpha:        item.Alpha,
			StorageQubit: storage,
		}
	}
	// Measure-directly attempt.
	if e.outstandingK {
		return mhp.PollDecision{}
	}
	if !e.cfg.EmissionMultiplexing && e.outstandingM > 0 {
		return mhp.PollDecision{}
	}
	if e.outstandingM >= maxOutstandingM {
		return mhp.PollDecision{}
	}
	e.mAttemptTimes[(e.mHead+e.outstandingM)%len(e.mAttemptTimes)] = now
	e.outstandingM++
	return mhp.PollDecision{
		Attempt:      true,
		QueueID:      item.ID,
		Keep:         false,
		Alpha:        item.Alpha,
		MeasureBasis: sharedBasisForCycle(item.ID, cycle),
	}
}

// Steady implements mhp.Generator. The steady decision holds from cycle
// while no K attempt is outstanding and the node is not busy, and for as
// long as PollTrigger's inputs stay put: while the scheduler's pick cannot
// change (pickBound), for a K attempt until the next carbon
// re-initialisation window, and for an M attempt until reapLostAttempts
// would release an outstanding one. A K stride above one is never steady:
// its polls attempt only every stride-th cycle. Everything else that
// changes the pick comes from an event, which the fold does not cross.
//
// Outstanding M attempts, whose REPLYs were lost, leave an M decision
// steady under emission multiplexing while there are fewer than
// maxOutstandingM: each poll adds one and its failure result releases the
// oldest, so their number stays put (lostMPolls).
func (e *EGP) Steady(cycle uint64) (mhp.PollDecision, uint64) {
	now, lost := e.cfg.Sim.Now(), e.outstandingM
	if e.outstandingK || lost > 0 && !e.cfg.EmissionMultiplexing || lost >= maxOutstandingM || now < e.busyUntil {
		return mhp.PollDecision{}, 0
	}
	bound := e.pickBound(cycle)
	if bound <= cycle {
		return mhp.PollDecision{}, 0
	}
	item := e.cfg.Scheduler.Next(e.queue, cycle)
	if item == nil {
		return mhp.PollDecision{}, 0
	}
	steady := bound - cycle
	d := mhp.PollDecision{Attempt: true, QueueID: item.ID, Keep: item.Keep, Alpha: item.Alpha}
	if !item.Keep {
		return d, min(steady, e.lostMPolls(now))
	}
	if lost > 0 || e.kStride != 1 || !e.kEligible(cycle) {
		return mhp.PollDecision{}, 0
	}
	if e.reinitPeriod != 0 {
		steady = min(steady, e.reinitPeriod-cycle%e.reinitPeriod)
	}
	d.StorageQubit = nv.CommQubitID
	if q, ok := e.qmm.PickStorage(); ok {
		d.StorageQubit = q
	}
	return d, steady
}

// lostMPolls returns how many polls from now on, one cycle apart, each
// adding an M attempt whose failure then releases the oldest outstanding
// one, come before the first at which reapLostAttempts would release an
// outstanding attempt as lost; the maximum with none outstanding. The j-th
// poll from now finds the j-th oldest attempt at the ring's head, and from
// the lost attempts' count k on the attempt of the poll k cycles before.
func (e *EGP) lostMPolls(now sim.Time) uint64 {
	k := e.outstandingM
	if k == 0 {
		return math.MaxUint64
	}
	for j := range k {
		at := now.Add(sim.Duration(j) * e.period)
		if at.Sub(e.mAttemptTimes[(e.mHead+j)%len(e.mAttemptTimes)]) > e.replyDeadline {
			return uint64(j)
		}
	}
	if sim.Duration(k)*e.period > e.replyDeadline {
		return uint64(k)
	}
	return math.MaxUint64
}

// SteadyDecision implements mhp.Generator: an M attempt measures in its
// cycle's shared basis.
func (e *EGP) SteadyDecision(cycle uint64, d mhp.PollDecision) mhp.PollDecision {
	if !d.Keep {
		d.MeasureBasis = sharedBasisForCycle(d.QueueID, cycle)
	}
	return d
}

// Absorb implements mhp.Generator. A failed K attempt's reserve and release
// the communication qubit, which the QMM counts. A failed M attempt's poll
// writes its time into the M ring after the outstanding attempts, and its
// failure result releases the ring's head: the head moves on, and the
// outstanding attempts' slots end up holding the times of the latest polls
// (all the slots still live are written).
func (e *EGP) Absorb(cycle, failed uint64, d mhp.PollDecision) {
	e.cycle = cycle + failed - 1
	if d.Keep {
		e.qmm.allocations += failed
		e.qmm.releases += failed
		return
	}
	ring := uint64(len(e.mAttemptTimes))
	now, k := e.cfg.Sim.Now(), uint64(e.outstandingM)
	for j := failed - min(failed, k); j < failed; j++ {
		e.mAttemptTimes[(uint64(e.mHead)+j+k)%ring] = now.Add(sim.Duration(j) * e.period)
	}
	e.mHead = int((uint64(e.mHead) + failed) % ring)
}

// kAttemptStride is the number of base (M-type) MHP cycles between permitted
// create-and-keep attempts: the K cycle time expressed in base cycles
// (rounded to the nearest integer), at least 1. On the Lab hardware the two
// cycle times nearly coincide so the stride is 1; on QL2020 the K attempt
// rate of ≈165 µs yields a stride of 16 base cycles.
func kAttemptStride(p *nv.Platform) uint64 {
	base := p.CycleTime[nv.RequestMeasure]
	keep := p.CycleTime[nv.RequestKeep]
	if base <= 0 || keep <= base {
		return 1
	}
	stride := uint64((keep + base/2) / base)
	if stride < 1 {
		return 1
	}
	return stride
}

// kResumeAfterSuccess computes the first cycle at which a new K attempt may
// start after a success in attemptCycle: both nodes must have received their
// reply and completed the move to memory. It only uses shared platform
// constants, so both nodes compute the same value.
func (e *EGP) kResumeAfterSuccess(attemptCycle uint64, moved bool) uint64 {
	p := e.cfg.Platform
	base := p.CycleTime[nv.RequestMeasure]
	maxRTT := p.MidpointRoundTrip("A")
	if rtt := p.MidpointRoundTrip("B"); rtt > maxRTT {
		maxRTT = rtt
	}
	wait := maxRTT
	if moved {
		wait += p.Gates.MoveToCarbon.Duration
	}
	return attemptCycle + uint64(wait/base) + 2
}

// reapLostAttempts releases attempt bookkeeping whose REPLY is long overdue
// at now (lost classical frames), preventing deadlock under inflated loss
// rates. An attempt may wait replyDeadline: eight round trips to the
// midpoint plus 2 ms.
func (e *EGP) reapLostAttempts(now sim.Time) {
	if e.outstandingK && now > e.kDeadline {
		e.outstandingK = false
		e.qmm.ReleaseComm()
	}
	for e.outstandingM > 0 && now.Sub(e.mAttemptTimes[e.mHead]) > e.replyDeadline {
		e.popMAttempt()
	}
}

// popMAttempt releases the oldest outstanding M attempt.
func (e *EGP) popMAttempt() {
	e.mHead = (e.mHead + 1) % len(e.mAttemptTimes)
	e.outstandingM--
}

// sharedBasisForCycle derives a pseudo-random measurement basis that both
// nodes compute identically from shared state (the queue item and the cycle
// number), standing in for the pre-agreed random basis string of Appendix B.
func sharedBasisForCycle(id wire.AbsoluteQueueID, cycle uint64) quantum.BasisLabel {
	h := cycle*2654435761 + uint64(id.QueueSeq)*40503 + uint64(id.QueueID)*97
	h ^= h >> 13
	return quantum.BasisLabel(h % 3)
}

// HandleResult implements mhp.Generator: it processes the outcome of an
// attempt reported by the physical layer.
func (e *EGP) HandleResult(r mhp.Result) {
	// Release attempt bookkeeping first.
	if r.Keep {
		e.outstandingK = false
		e.qmm.ReleaseComm()
	} else if e.outstandingM > 0 {
		e.popMAttempt()
	}

	if r.Outcome == wire.ErrGeneralFailure || r.Outcome.IsError() {
		// Local failure or midpoint protocol error: nothing was produced.
		return
	}
	if r.Outcome == wire.OutcomeFailure {
		return
	}

	// Heralded success: sequence-number bookkeeping (Protocol 2 step 3).
	seq := r.MHPSeq
	switch {
	case seqAfter(seq, e.expectedSeq):
		// We missed one or more earlier successes (lost REPLYs). Expire the
		// missing range and resynchronise.
		e.sendExpire(r.QueueID, seq-1)
		e.expectedSeq = seq + 1
		return
	case seqBefore(seq, e.expectedSeq):
		// Stale reply; ignore.
		return
	default:
		e.expectedSeq = seq + 1
	}

	item := e.queue.Find(r.QueueID)
	if item == nil {
		// The request timed out, completed, or was never known here: free
		// resources and move on (the peer may issue an EXPIRE for its OK).
		return
	}
	pair := r.Pair
	if pair == nil {
		return
	}

	if r.Keep {
		e.handleKeepSuccess(item, pair, r)
	} else {
		e.handleMeasureSuccess(item, pair, r)
	}
}

// seqAfter reports whether a > b in circular uint16 arithmetic.
func seqAfter(a, b uint16) bool { return a != b && a-b < 0x8000 }

// seqBefore reports whether a < b in circular uint16 arithmetic.
func seqBefore(a, b uint16) bool { return a != b && b-a < 0x8000 }

// handleKeepSuccess completes one pair of a create-and-keep request.
func (e *EGP) handleKeepSuccess(item *QueueItem, pair *nv.EntangledPair, r mhp.Result) {
	now := e.cfg.Sim.Now()
	device := e.cfg.Device
	side := e.cfg.Side

	if err := device.StorePair(pair, side); err != nil {
		// The communication qubit is unexpectedly busy; treat as a failure.
		return
	}
	// Convert |Ψ−⟩ to |Ψ+⟩ at the request origin (Protocol 2 step 3(iv)).
	if r.Outcome == wire.OutcomeStateTwo && e.localOrigin(item) {
		device.ApplyCorrection(pair, side)
	}
	logical := nv.CommQubitID
	moved := false
	if r.StorageQubit != nv.CommQubitID {
		if err := device.MoveToMemory(pair, side, e.qmm.LogicalToPhysical(r.StorageQubit), now); err == nil {
			logical = r.StorageQubit
			moved = true
			e.busyUntil = now.Add(device.Gates.MoveToCarbon.Duration)
		}
	}
	if resume := e.kResumeAfterSuccess(r.AttemptCycle, moved); resume > e.kResumeCycle {
		e.kResumeCycle = resume
	}
	// Apply storage decoherence up to "now" so the recorded fidelity reflects
	// the delivery moment.
	device.ApplyDecoherence(pair, side, now)
	fidelity := pair.Fidelity()
	goodness := e.feu.Goodness(r.Alpha)

	ev := OKEvent{
		Keep:         true,
		LogicalQubit: logical,
		Fidelity:     fidelity,
		Goodness:     goodness,
	}
	if !e.cfg.AutoRelease {
		ev.Pair = pair
	}
	e.completePair(item, r, ev)

	if e.cfg.AutoRelease {
		device.Release(pair)
	}
}

// handleMeasureSuccess completes one pair of a measure-directly request.
func (e *EGP) handleMeasureSuccess(item *QueueItem, pair *nv.EntangledPair, r mhp.Result) {
	now := e.cfg.Sim.Now()
	device := e.cfg.Device
	side := e.cfg.Side

	// The delivered fidelity is the pair fidelity before either node's
	// destructive measurement; the first node to process its REPLY caches it
	// on the shared pair so the peer's OK reports the same quantity.
	if pair.DeliveredFidelity == 0 {
		pair.DeliveredFidelity = pair.Fidelity()
	}
	fidelityBefore := pair.DeliveredFidelity
	if err := device.StorePair(pair, side); err != nil {
		return
	}
	res := device.Measure(pair, side, r.MeasureBasis, now, e.cfg.Sim.RNG())
	goodness := e.feu.Goodness(r.Alpha)

	e.completePair(item, r, OKEvent{
		Keep:             false,
		Fidelity:         fidelityBefore,
		Goodness:         goodness,
		MeasureOutcome:   res.Outcome,
		MeasureBasis:     res.Basis,
		HeraldedPsiMinus: r.Outcome == wire.OutcomeStateTwo,
	})
}

// completePair fills the common OK fields, decrements the request's pair
// count and removes completed requests from the queue.
func (e *EGP) completePair(item *QueueItem, r mhp.Result, ev OKEvent) {
	now := e.cfg.Sim.Now()
	if item.PairsLeft > 0 {
		item.PairsLeft--
	}
	done := item.PairsLeft == 0
	if done {
		e.queue.Remove(item.ID)
	}
	e.okCount++
	ev.Node = e.cfg.NodeName
	ev.CreateID = item.CreateID
	ev.QueueID = item.ID
	ev.EntanglementID = r.MHPSeq
	ev.Priority = int(item.Priority)
	ev.OriginIsLocal = e.localOrigin(item)
	ev.PairsRemaining = int(item.PairsLeft)
	ev.RequestDone = done
	ev.CreateTime = item.CreateTime
	ev.At = now
	e.cfg.Trace.Record(now, obs.KindEGPOK, e.cfg.TraceID, int64(item.CreateID), int64(item.PairsLeft))
	if e.cfg.OnOK != nil {
		e.cfg.OnOK(ev)
	}
}

// sendExpire notifies the peer that OKs for MHP sequence numbers up to high
// must be revoked, and schedules retransmission until acknowledged.
func (e *EGP) sendExpire(id wire.AbsoluteQueueID, high uint16) {
	e.expiresSent++
	e.cfg.Trace.Record(e.cfg.Sim.Now(), obs.KindEGPExpire, e.cfg.TraceID, int64(high), 0)
	frame := wire.ExpireFrame{
		QueueID:      id,
		OriginNodeID: e.cfg.NodeID,
		ExpectedSeq:  high + 1,
	}
	send := func() { e.cfg.ToPeer.Send(frame.Encode()) }
	send()
	// Retransmit a few times unless acknowledged.
	var retries int
	var schedule func()
	schedule = func() {
		ev := sim.Schedule(e.cfg.Sim, 10*sim.Millisecond, func() {
			if _, pending := e.pendingExpires[id]; !pending {
				return
			}
			if retries >= 5 {
				delete(e.pendingExpires, id)
				return
			}
			retries++
			send()
			schedule()
		})
		e.pendingExpires[id] = ev
	}
	schedule()
}

// HandlePeerMessage demultiplexes frames arriving from the peer EGP: DQP
// frames and EXPIRE/EXPIRE-ACK.
func (e *EGP) HandlePeerMessage(msg classical.Message) {
	e.wake()
	raw, ok := msg.Payload.([]byte)
	if !ok {
		return
	}
	ft, err := wire.PeekType(raw)
	if err != nil {
		return
	}
	switch ft {
	case wire.FrameDQPAdd, wire.FrameDQPAck, wire.FrameDQPRej:
		e.queue.HandleMessage(msg)
	case wire.FrameExpire:
		e.handleExpire(raw)
	case wire.FrameExpireAck:
		e.handleExpireAck(raw)
	}
}

// handleExpire processes a peer's EXPIRE: revoke local state for the
// sequence range, resynchronise the expected sequence number and
// acknowledge.
func (e *EGP) handleExpire(raw []byte) {
	frame, err := wire.DecodeExpire(raw)
	if err != nil {
		return
	}
	e.expiresReceived++
	e.cfg.Trace.Record(e.cfg.Sim.Now(), obs.KindEGPExpire, e.cfg.TraceID, int64(frame.ExpectedSeq-1), 1)
	if seqAfter(frame.ExpectedSeq, e.expectedSeq) {
		e.expectedSeq = frame.ExpectedSeq
	}
	ack := wire.ExpireAckFrame{QueueID: frame.QueueID, ExpectedSeq: e.expectedSeq}
	e.cfg.ToPeer.Send(ack.Encode())
}

// handleExpireAck completes a pending EXPIRE exchange.
func (e *EGP) handleExpireAck(raw []byte) {
	frame, err := wire.DecodeExpireAck(raw)
	if err != nil {
		return
	}
	if ev, ok := e.pendingExpires[frame.QueueID]; ok {
		ev.Cancel()
		delete(e.pendingExpires, frame.QueueID)
	}
	if seqAfter(frame.ExpectedSeq, e.expectedSeq) {
		e.expectedSeq = frame.ExpectedSeq
	}
}

// ExpectedSeq returns the next expected MHP sequence number (for tests).
func (e *EGP) ExpectedSeq() uint16 { return e.expectedSeq }
