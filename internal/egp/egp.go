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

// ExpireEvent reports that previously issued OKs were revoked.
type ExpireEvent struct {
	Node    string
	QueueID wire.AbsoluteQueueID
	SeqLow  uint16
	SeqHigh uint16
	At      sim.Time
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
	Registry *mhp.PairRegistry
	Side     nv.PairSide

	Scheduler Scheduler
	// ToPeer carries DQP/EGP frames to the peer EGP of the same link. Any
	// classical.Port works: netsim passes a TagPort over the shared
	// node-to-node channel, the package's tests a direct Channel.
	ToPeer classical.Port

	OnOK     func(OKEvent)
	OnError  func(ErrorEvent)
	OnExpire func(ExpireEvent)

	// MaxQueueLen bounds each priority lane (256 in the paper's overload
	// study).
	MaxQueueLen int
	// EmissionMultiplexing allows M-type attempts to be triggered before the
	// previous attempt's REPLY has arrived (Section 5.2.5).
	EmissionMultiplexing bool
	// MaxOutstandingM caps the number of in-flight multiplexed M attempts.
	MaxOutstandingM int
	// AutoRelease frees the local qubit as soon as the OK is issued,
	// modelling a higher layer that consumes pairs immediately.
	AutoRelease bool
	// AcceptPolicy gates remotely originated requests by purpose ID.
	AcceptPolicy AcceptPolicy

	// Trace, when non-nil, records the OK/error/expiry lifecycle into the
	// flight recorder under track TraceID (the link ID). Nil disables
	// recording at the cost of one branch per lifecycle event.
	Trace   *obs.Ring
	TraceID uint64
	// Metrics, when non-nil, publishes lifecycle counters. Handles are
	// nil-safe, so a nil bundle field costs nothing.
	Metrics *obs.EGPMetrics
}

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
	// mAttemptTimes is a fixed ring, sized by MaxOutstandingM, of the trigger
	// times of the outstanding M attempts: outstandingM of them, oldest at
	// mHead.
	outstandingM  int
	mAttemptTimes []sim.Time
	mHead         int
	busyUntil     sim.Time
	// kResumeCycle is the earliest cycle at which the next create-and-keep
	// attempt may be triggered after a success; it is computed identically
	// at both nodes (from the attempt cycle and platform constants) so they
	// stay aligned on the K attempt grid without extra communication.
	kResumeCycle uint64

	// reapScratch is the reusable expired-item collection buffer of
	// reapExpired, which runs every MHP cycle.
	reapScratch []*QueueItem

	// Pending EXPIRE exchanges awaiting acknowledgement.
	pendingExpires map[wire.AbsoluteQueueID]sim.EventID

	// Peer resource view from REQ(E)/ACK(E) advertisements.
	peerComm    int
	peerStorage int
	peerKnown   bool

	// Statistics.
	creates, okCount, errCount, expiresSent, expiresReceived uint64
	attemptsRequested                                        uint64
}

// New constructs an EGP instance.
func New(cfg Config) *EGP {
	if cfg.Sim == nil || cfg.Platform == nil || cfg.Device == nil || cfg.Sampler == nil || cfg.Registry == nil || cfg.ToPeer == nil {
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
	if cfg.MaxOutstandingM <= 0 {
		cfg.MaxOutstandingM = 64
	}
	e := &EGP{
		cfg:            cfg,
		qmm:            NewQMM(cfg.Device),
		feu:            NewFEU(cfg.Platform, cfg.Sampler),
		expectedSeq:    1,
		mAttemptTimes:  make([]sim.Time, cfg.MaxOutstandingM),
		pendingExpires: make(map[wire.AbsoluteQueueID]sim.EventID),
	}
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
			e.errCount++
			e.emitError(item, code)
		},
	})
	e.queue.SetAcceptPolicy(cfg.AcceptPolicy)
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

// Idle implements mhp.Generator: with nothing queued and no attempt
// outstanding, a poll changes nothing until the queue gains an item.
func (e *EGP) Idle() bool {
	return e.queue.TotalLen() == 0 && !e.outstandingK && e.outstandingM == 0
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
		e.errCount++
		e.emitErrorRaw(createID, req.Priority, wire.ErrUnsupported)
		return createID, wire.ErrUnsupported
	}
	// Completion-time feasibility (UNSUPP).
	if req.MaxTime > 0 {
		est := e.feu.EstimateCompletionSeconds(req.NumPairs, alpha, req.Keep)
		if math.IsInf(est, 1) || est > req.MaxTime.Seconds() {
			e.errCount++
			e.emitErrorRaw(createID, req.Priority, wire.ErrUnsupported)
			return createID, wire.ErrUnsupported
		}
	}
	// Atomic feasibility (MEMEXCEEDED).
	if req.Atomic && req.Keep {
		ever, _ := e.qmm.CanSatisfyAtomic(req.NumPairs)
		if !ever {
			e.errCount++
			e.emitErrorRaw(createID, req.Priority, wire.ErrMemExceeded)
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
		e.errCount++
		e.emitErrorRaw(createID, req.Priority, wire.ErrOutOfMemory)
		return createID, wire.ErrOutOfMemory
	}
	// The master queues its own request at once; a slave's joins its queue
	// when the master acknowledges it (OnConfirmed).
	if e.cfg.IsMaster {
		e.wake()
	}
	return createID, wire.ErrNone
}

// emitError reports a request-level failure for a queue item.
func (e *EGP) emitError(item *QueueItem, code wire.EGPError) {
	e.cfg.Trace.Record(e.cfg.Sim.Now(), obs.KindEGPError, e.cfg.TraceID, int64(item.CreateID), int64(code))
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.Errors.Inc()
	}
	if e.cfg.OnError == nil {
		return
	}
	e.cfg.OnError(ErrorEvent{
		Node:     e.cfg.NodeName,
		CreateID: item.CreateID,
		QueueID:  item.ID,
		Code:     code,
		Priority: int(item.Priority),
		At:       e.cfg.Sim.Now(),
	})
}

func (e *EGP) emitErrorRaw(createID uint16, priority int, code wire.EGPError) {
	e.cfg.Trace.Record(e.cfg.Sim.Now(), obs.KindEGPError, e.cfg.TraceID, int64(createID), int64(code))
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.Errors.Inc()
	}
	if e.cfg.OnError == nil {
		return
	}
	e.cfg.OnError(ErrorEvent{
		Node:     e.cfg.NodeName,
		CreateID: createID,
		Code:     code,
		Priority: priority,
		At:       e.cfg.Sim.Now(),
	})
}

// localOrigin reports whether a queue item was created at this node.
func (e *EGP) localOrigin(item *QueueItem) bool { return item.OriginMaster == e.cfg.IsMaster }

// reapExpired removes items timed out at the given cycle, emitting TIMEOUT
// errors for locally originated requests. It runs every MHP cycle, so the
// scan iterates the lanes in place and only collects into the reusable
// scratch slice when something actually expired — the common case allocates
// nothing.
func (e *EGP) reapExpired(cycle uint64) {
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
			e.errCount++
			e.emitError(it, wire.ErrTimeout)
		}
	}
}

// FailAll drains the whole request queue with per-request errors of the
// given code and releases every piece of in-flight attempt bookkeeping —
// the link-down path of the fault injection subsystem. Errors are emitted
// for locally originated requests only (mirroring reapExpired: the peer EGP
// drains its own queue and reports to its own origin), remote items are
// silently retired, and pending DQP handshakes and EXPIRE retransmissions
// are cancelled so no timer outlives the outage.
func (e *EGP) FailAll(code wire.EGPError) {
	e.queue.FailPending(code)
	items := append([]*QueueItem(nil), e.queue.AllItems()...)
	for _, it := range items {
		e.queue.Remove(it.ID)
		if e.localOrigin(it) {
			e.errCount++
			e.emitError(it, code)
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

// inCarbonReinitWindow reports whether the hardware is busy re-initialising
// its carbon memory at the given cycle (Appendix D.3.3: 330 µs every
// 3500 µs), which blocks create-and-keep attempts.
func (e *EGP) inCarbonReinitWindow(cycle uint64) bool {
	p := e.cfg.Platform
	if p.CarbonReinitPeriod <= 0 || p.CarbonReinitDuration <= 0 {
		return false
	}
	cycleTime := p.CycleTime[nv.RequestMeasure]
	periodCycles := uint64(p.CarbonReinitPeriod / cycleTime)
	busyCycles := uint64(p.CarbonReinitDuration / cycleTime)
	if periodCycles == 0 {
		return false
	}
	return cycle%periodCycles < busyCycles
}

// PollTrigger implements mhp.Generator: it is called by the physical layer
// at every MHP cycle while the EGP has work (see Idle) and decides whether
// (and how) to attempt entanglement generation.
func (e *EGP) PollTrigger(cycle uint64) mhp.PollDecision {
	e.cycle = cycle
	e.reapExpired(cycle)
	e.reapLostAttempts()

	if e.cfg.Sim.Now() < e.busyUntil {
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
		if cycle%e.kAttemptStride() != 0 {
			return mhp.PollDecision{}
		}
		if cycle < e.kResumeCycle {
			return mhp.PollDecision{}
		}
		if e.outstandingK || e.outstandingM > 0 {
			return mhp.PollDecision{}
		}
		if e.inCarbonReinitWindow(cycle) {
			return mhp.PollDecision{}
		}
		if !e.qmm.CommAvailable() {
			return mhp.PollDecision{}
		}
		if e.peerKnown && e.peerComm == 0 {
			// Flow control: the peer advertised no free communication qubit.
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
		e.kDeadline = e.cfg.Sim.Now().Add(e.replyDeadline())
		e.attemptsRequested++
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
	if e.outstandingM >= e.cfg.MaxOutstandingM {
		return mhp.PollDecision{}
	}
	e.mAttemptTimes[(e.mHead+e.outstandingM)%len(e.mAttemptTimes)] = e.cfg.Sim.Now()
	e.outstandingM++
	e.attemptsRequested++
	return mhp.PollDecision{
		Attempt:      true,
		QueueID:      item.ID,
		Keep:         false,
		Alpha:        item.Alpha,
		MeasureBasis: sharedBasisForCycle(item.ID, cycle),
	}
}

// kAttemptStride is the number of base (M-type) MHP cycles between permitted
// create-and-keep attempts: the K cycle time expressed in base cycles
// (rounded to the nearest integer), at least 1. On the Lab hardware the two
// cycle times nearly coincide so the stride is 1; on QL2020 the K attempt
// rate of ≈165 µs yields a stride of 16 base cycles.
func (e *EGP) kAttemptStride() uint64 {
	base := e.cfg.Platform.CycleTime[nv.RequestMeasure]
	keep := e.cfg.Platform.CycleTime[nv.RequestKeep]
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

// replyDeadline is how long an attempt may wait for its REPLY before the EGP
// declares the reply lost and releases the attempt bookkeeping.
func (e *EGP) replyDeadline() sim.Duration {
	rtt := e.cfg.Platform.MidpointRoundTrip(e.cfg.NodeName)
	d := 8*rtt + 2*sim.Millisecond
	return d
}

// reapLostAttempts releases attempt bookkeeping whose REPLY is long overdue
// (lost classical frames), preventing deadlock under inflated loss rates.
func (e *EGP) reapLostAttempts() {
	now := e.cfg.Sim.Now()
	if e.outstandingK && now > e.kDeadline {
		e.outstandingK = false
		e.qmm.ReleaseComm()
	}
	deadline := e.replyDeadline()
	for e.outstandingM > 0 && now.Sub(e.mAttemptTimes[e.mHead]) > deadline {
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
		e.sendExpire(r.QueueID, e.expectedSeq, seq-1)
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
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.OKs.Inc()
	}
	if e.cfg.OnOK != nil {
		e.cfg.OnOK(ev)
	}
}

// sendExpire notifies the peer that OKs for the given MHP sequence range
// must be revoked, and schedules retransmission until acknowledged.
func (e *EGP) sendExpire(id wire.AbsoluteQueueID, low, high uint16) {
	e.expiresSent++
	e.cfg.Trace.Record(e.cfg.Sim.Now(), obs.KindEGPExpire, e.cfg.TraceID, int64(high), 0)
	if e.cfg.Metrics != nil {
		e.cfg.Metrics.Expires.Inc()
	}
	frame := wire.ExpireFrame{
		QueueID:      id,
		OriginNodeID: e.cfg.NodeID,
		ExpectedSeq:  high + 1,
	}
	send := func() { e.cfg.ToPeer.Send(frame.Encode()) }
	send()
	if e.cfg.OnExpire != nil {
		e.cfg.OnExpire(ExpireEvent{Node: e.cfg.NodeName, QueueID: id, SeqLow: low, SeqHigh: high, At: e.cfg.Sim.Now()})
	}
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
// frames, EXPIRE/EXPIRE-ACK and memory advertisements.
func (e *EGP) HandlePeerMessage(msg classical.Message) {
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
	case wire.FrameMemReq, wire.FrameMemAck:
		e.handleMemory(raw)
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
	if e.cfg.OnExpire != nil {
		e.cfg.OnExpire(ExpireEvent{Node: e.cfg.NodeName, QueueID: frame.QueueID, SeqHigh: frame.ExpectedSeq - 1, At: e.cfg.Sim.Now()})
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

// AdvertiseMemory sends the peer a REQ(E) with this node's free qubit
// counts (Section E.3, memory advertisement).
func (e *EGP) AdvertiseMemory() {
	comm := 0
	if e.qmm.CommAvailable() {
		comm = 1
	}
	frame := wire.MemoryFrame{CommQubits: uint8(comm), StorageQubits: uint8(e.qmm.StorageAvailable())}
	e.cfg.ToPeer.Send(frame.Encode())
}

// handleMemory stores the peer's advertised resources and acknowledges
// REQ(E) frames.
func (e *EGP) handleMemory(raw []byte) {
	frame, err := wire.DecodeMemory(raw)
	if err != nil {
		return
	}
	e.peerComm = int(frame.CommQubits)
	e.peerStorage = int(frame.StorageQubits)
	e.peerKnown = true
	if !frame.IsAck {
		comm := 0
		if e.qmm.CommAvailable() {
			comm = 1
		}
		ack := wire.MemoryFrame{IsAck: true, CommQubits: uint8(comm), StorageQubits: uint8(e.qmm.StorageAvailable())}
		e.cfg.ToPeer.Send(ack.Encode())
	}
}

// PeerResources returns the most recently advertised peer resource counts
// and whether any advertisement has been received.
func (e *EGP) PeerResources() (comm, storage int, known bool) {
	return e.peerComm, e.peerStorage, e.peerKnown
}

// ExpectedSeq returns the next expected MHP sequence number (for tests).
func (e *EGP) ExpectedSeq() uint16 { return e.expectedSeq }
