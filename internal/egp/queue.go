// Package egp implements the link layer Entanglement Generation Protocol of
// Section 5.2 and Appendix E: the distributed queue protocol (DQP), the
// quantum memory manager (QMM), the fidelity estimation unit (FEU), the
// request schedulers (FCFS and strict-priority + weighted-fair-queuing), and
// the EGP request lifecycle itself (CREATE → OK / ERR / EXPIRE).
package egp

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/classical"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Priority classes used throughout the evaluation. Lower value = higher
// priority, matching "priority 1 (highest)" for NL in the paper.
const (
	PriorityNL = 0
	PriorityCK = 1
	PriorityMD = 2
	// NumQueues is the number of priority lanes in the distributed queue.
	NumQueues = 3
)

// PriorityName renders the use-case name of a priority class.
func PriorityName(p int) string {
	switch p {
	case PriorityNL:
		return "NL"
	case PriorityCK:
		return "CK"
	case PriorityMD:
		return "MD"
	default:
		return fmt.Sprintf("P%d", p)
	}
}

// QueueItem is one entanglement request together with the metadata the DQP
// attaches to it (Section E.1).
type QueueItem struct {
	ID               wire.AbsoluteQueueID
	CreateID         uint16
	OriginMaster     bool // true when the request originated at the queue master
	PurposeID        uint16
	Priority         uint8
	NumPairs         uint16
	PairsLeft        uint16
	Keep             bool
	Atomic           bool
	Consecutive      bool
	MinFidelity      float64
	Alpha            float64
	CreateTime       sim.Time
	ScheduleCycle    uint64 // min_time: earliest MHP cycle the item may be served
	TimeoutCycle     uint64 // 0 = no timeout
	VirtualFinish    uint64 // WFQ virtual finish time, stamped by the master
	EstCyclesPerPair uint32

	confirmed bool // both nodes are known to hold the item
}

// Confirmed reports whether the peer has acknowledged the item.
func (it *QueueItem) Confirmed() bool { return it.confirmed }

// Expired reports whether the item has passed its timeout cycle.
func (it *QueueItem) Expired(cycle uint64) bool {
	return it.TimeoutCycle != 0 && cycle > it.TimeoutCycle
}

// Ready reports whether the item may be served at the given cycle.
func (it *QueueItem) Ready(cycle uint64) bool {
	return it.confirmed && cycle >= it.ScheduleCycle && !it.Expired(cycle)
}

// DistributedQueue is one node's view of the shared request queue
// (Section E.1). One node is the master and assigns sequence numbers within
// each priority lane; the other (slave) obtains them through the two-way
// handshake. Both sequence spaces wrap: the 8-bit CSEQ of an ADD is kept in
// a window of addWindow, and each lane holds its items in the circular order
// of their 16-bit QueueSeqs (seqBefore), which is their assignment order.
type DistributedQueue struct {
	nodeName string
	isMaster bool
	simul    sim.Engine
	toPeer   classical.Port

	maxLen int

	queues [NumQueues][]*QueueItem
	// nextSeq is each lane's next QueueSeq; only the master assigns them.
	nextSeq [NumQueues]uint16
	// earliest is the smallest TimeoutCycle of the queued items
	// (math.MaxUint64 when none has one); earliestStale marks it for
	// recomputation after an item holding it left (see earliestTimeout).
	earliest      uint64
	earliestStale bool

	// handshakes are this side's ADDs awaiting an ACK, in CSEQ order;
	// onRetransmit is their timer's handler, built once.
	handshakes   []handshake
	nextCommSeq  uint8
	onRetransmit sim.ArgHandler

	// accepted has bit c set while peer CSEQ c is in the window, and
	// acceptedSeq[c%addWindow] is the QueueSeq it was given (c and
	// c−addWindow are never both in it): a retransmitted ADD is acknowledged
	// again with that ID, its lane the frame's Priority.
	accepted    [4]uint64
	acceptedSeq [addWindow]uint16

	// Callbacks.
	onConfirmed func(*QueueItem)
	onRejected  func(*QueueItem, wire.EGPError)

	// stampFunc lets the master's scheduler assign scheduling metadata
	// (e.g. WFQ virtual finish times) to items as they are enqueued.
	stampFunc func(*QueueItem)

	retransmitDelay sim.Duration
	maxRetries      int

	// Statistics.
	addsSent, acksSent, rejectsSent, retransmissions uint64
}

// addWindow is how many consecutive CSEQs one side's unacknowledged ADDs may
// span, half the 8-bit space: accepting CSEQ c forgets c−addWindow, which
// the peer reuses only after c is acknowledged.
const addWindow = 128

// handshake is one outgoing ADD awaiting its ACK.
type handshake struct {
	cseq    uint8
	item    *QueueItem
	retries int
	timer   sim.EventID
}

// QueueConfig collects DistributedQueue construction parameters.
type QueueConfig struct {
	NodeName        string
	IsMaster        bool
	Sim             sim.Engine
	ToPeer          classical.Port
	MaxLen          int // maximum items per priority lane (256 in the paper)
	RetransmitDelay sim.Duration
	MaxRetries      int
	OnConfirmed     func(*QueueItem)
	OnRejected      func(*QueueItem, wire.EGPError)
}

// NewDistributedQueue builds one node's end of the distributed queue.
func NewDistributedQueue(cfg QueueConfig) *DistributedQueue {
	if cfg.Sim == nil || cfg.ToPeer == nil {
		panic("egp: incomplete queue configuration")
	}
	if cfg.MaxLen <= 0 {
		cfg.MaxLen = 256
	}
	if cfg.RetransmitDelay <= 0 {
		cfg.RetransmitDelay = 10 * sim.Millisecond
	}
	if cfg.MaxRetries <= 0 {
		cfg.MaxRetries = 5
	}
	q := &DistributedQueue{
		nodeName:        cfg.NodeName,
		isMaster:        cfg.IsMaster,
		simul:           cfg.Sim,
		toPeer:          cfg.ToPeer,
		maxLen:          cfg.MaxLen,
		onConfirmed:     cfg.OnConfirmed,
		onRejected:      cfg.OnRejected,
		retransmitDelay: cfg.RetransmitDelay,
		maxRetries:      cfg.MaxRetries,
		earliest:        math.MaxUint64,
	}
	q.onRetransmit = q.retransmit
	return q
}

// IsMaster reports whether this node holds the master copy of the queue.
func (q *DistributedQueue) IsMaster() bool { return q.isMaster }

// Len returns the number of items currently in the given priority lane.
func (q *DistributedQueue) Len(priority int) int { return len(q.queues[priority]) }

// TotalLen returns the number of items across all lanes.
func (q *DistributedQueue) TotalLen() int {
	n := 0
	for i := range q.queues {
		n += len(q.queues[i])
	}
	return n
}

// Full reports whether the given lane has reached its maximum length.
func (q *DistributedQueue) Full(priority int) bool { return len(q.queues[priority]) >= q.maxLen }

// Items returns the items of a lane in queue order (shared slice; callers
// must not mutate).
func (q *DistributedQueue) Items(priority int) []*QueueItem { return q.queues[priority] }

// AllItems returns every queued item across lanes, ordered by lane then
// position.
func (q *DistributedQueue) AllItems() []*QueueItem {
	var out []*QueueItem
	for i := range q.queues {
		out = append(out, q.queues[i]...)
	}
	return out
}

// Find returns the item with the given absolute queue ID, or nil.
func (q *DistributedQueue) Find(id wire.AbsoluteQueueID) *QueueItem {
	if int(id.QueueID) >= NumQueues {
		return nil
	}
	for _, it := range q.queues[id.QueueID] {
		if it.ID == id {
			return it
		}
	}
	return nil
}

// Remove deletes the item with the given ID from the queue, returning true
// when it was present.
func (q *DistributedQueue) Remove(id wire.AbsoluteQueueID) bool {
	if int(id.QueueID) >= NumQueues {
		return false
	}
	lane := q.queues[id.QueueID]
	for i, it := range lane {
		if it.ID == id {
			q.queues[id.QueueID] = append(lane[:i], lane[i+1:]...)
			if it.TimeoutCycle == q.earliest {
				q.earliestStale = true
			}
			return true
		}
	}
	return false
}

// push inserts an item at its QueueSeq's circular position in its lane,
// scanning from the tail, where the master's items always go.
func (q *DistributedQueue) push(item *QueueItem) {
	lane := q.queues[item.Priority]
	i := len(lane)
	for i > 0 && seqAfter(lane[i-1].ID.QueueSeq, item.ID.QueueSeq) {
		i--
	}
	q.queues[item.Priority] = slices.Insert(lane, i, item)
	if t := item.TimeoutCycle; t != 0 && t < q.earliest {
		q.earliest = t
	}
}

// earliestTimeout returns the smallest TimeoutCycle of the queued items, or
// math.MaxUint64 when none has a timeout: no item expires at a cycle up to
// it. It scans the lanes only after an item holding it left the queue.
func (q *DistributedQueue) earliestTimeout() uint64 {
	if q.earliestStale {
		q.earliest, q.earliestStale = math.MaxUint64, false
		for _, lane := range q.queues {
			for _, it := range lane {
				if t := it.TimeoutCycle; t != 0 && t < q.earliest {
					q.earliest = t
				}
			}
		}
	}
	return q.earliest
}

// Add enqueues a locally originated request. On the master the item receives
// its sequence number immediately and an ADD is sent to the slave; on the
// slave the ADD is sent to the master, which assigns the sequence number
// echoed in the ACK. The item is reported through OnConfirmed once both
// sides hold it, or OnRejected on failure. It refuses an item while the ADD
// addWindow CSEQs back awaits its ACK.
func (q *DistributedQueue) Add(item *QueueItem) error {
	priority := int(item.Priority)
	if priority < 0 || priority >= NumQueues {
		return fmt.Errorf("egp: priority %d out of range", item.Priority)
	}
	if q.Full(priority) {
		return fmt.Errorf("egp: queue %d full", priority)
	}
	if q.find(q.nextCommSeq-addWindow) >= 0 {
		return fmt.Errorf("egp: %d ADDs unacknowledged", addWindow)
	}
	item.OriginMaster = q.isMaster
	if q.isMaster {
		item.ID = wire.AbsoluteQueueID{QueueID: uint8(priority), QueueSeq: q.nextSeq[priority]}
		q.nextSeq[priority]++
		if q.stampFunc != nil {
			q.stampFunc(item)
		}
		q.push(item)
	}
	cseq := q.nextCommSeq
	q.nextCommSeq++
	q.sendAdd(cseq, item)
	timer := sim.ScheduleArg(q.simul, q.retransmitDelay, q.onRetransmit, cseq)
	q.handshakes = append(q.handshakes, handshake{cseq: cseq, item: item, timer: timer})
	return nil
}

// find returns the index of the unacknowledged ADD of the given CSEQ in
// handshakes, or -1.
func (q *DistributedQueue) find(cseq uint8) int {
	return slices.IndexFunc(q.handshakes, func(h handshake) bool { return h.cseq == cseq })
}

// settle ends handshake i, cancelling its retransmit timer, and returns its
// item.
func (q *DistributedQueue) settle(i int) *QueueItem {
	item := q.handshakes[i].item
	q.handshakes[i].timer.Cancel()
	q.handshakes = slices.Delete(q.handshakes, i, i+1)
	return item
}

func (q *DistributedQueue) sendAdd(cseq uint8, item *QueueItem) {
	q.addsSent++
	frame := wire.DQPFrame{
		Kind:             wire.DQPAdd,
		CommSeq:          cseq,
		QueueID:          item.ID,
		ScheduleCycle:    item.ScheduleCycle,
		TimeoutCycle:     item.TimeoutCycle,
		MinFidelity:      item.MinFidelity,
		PurposeID:        item.PurposeID,
		CreateID:         item.CreateID,
		NumPairs:         item.NumPairs,
		Priority:         item.Priority,
		VirtualFinish:    item.VirtualFinish,
		EstCyclesPerPair: item.EstCyclesPerPair,
		Flags: wire.RequestFlags{
			Store:         item.Keep,
			Atomic:        item.Atomic,
			MeasureDirect: !item.Keep,
			MasterRequest: item.OriginMaster,
			Consecutive:   item.Consecutive,
		},
	}
	q.toPeer.Send(frame.Encode())
}

// retransmit is the timer of the handshake whose CSEQ is arg: it resends
// the ADD, or after maxRetries resends gives it up, removing the master's
// copy and reporting ErrNoTime.
func (q *DistributedQueue) retransmit(_ sim.Time, arg any) {
	cseq := arg.(uint8)
	i := q.find(cseq) // settling a handshake cancels its timer
	h := &q.handshakes[i]
	if h.retries >= q.maxRetries {
		item := q.settle(i)
		if q.isMaster {
			q.Remove(item.ID)
		}
		if q.onRejected != nil {
			q.onRejected(item, wire.ErrNoTime)
		}
		return
	}
	h.retries++
	q.retransmissions++
	q.sendAdd(cseq, h.item)
	h.timer = sim.ScheduleArg(q.simul, q.retransmitDelay, q.onRetransmit, cseq)
}

// SetStampFunc installs the scheduler stamping hook applied by the master to
// every item entering the queue.
func (q *DistributedQueue) SetStampFunc(f func(*QueueItem)) { q.stampFunc = f }

// HandleMessage processes an encoded DQP frame received from the peer.
func (q *DistributedQueue) HandleMessage(msg classical.Message) {
	raw, ok := msg.Payload.([]byte)
	if !ok {
		return
	}
	frame, err := wire.DecodeDQP(raw)
	if err != nil {
		return
	}
	switch frame.Kind {
	case wire.DQPAdd:
		q.handleAdd(frame)
	case wire.DQPAck:
		q.handleAck(frame)
	case wire.DQPRej:
		q.handleRej(frame)
	}
}

// handleAdd processes a peer's ADD: validate, enqueue, and acknowledge.
func (q *DistributedQueue) handleAdd(frame wire.DQPFrame) {
	// Idempotent handling of retransmissions.
	c := frame.CommSeq
	if q.accepted[c/64]&(1<<(c%64)) != 0 {
		q.sendAckFor(c, wire.AbsoluteQueueID{QueueID: frame.Priority, QueueSeq: q.acceptedSeq[c%addWindow]}, frame)
		return
	}
	priority := int(frame.Priority)
	if priority < 0 || priority >= NumQueues || q.Full(priority) {
		q.rejectsSent++
		reply := frame
		reply.Kind = wire.DQPRej
		q.toPeer.Send(reply.Encode())
		return
	}
	item := &QueueItem{
		CreateID:         frame.CreateID,
		OriginMaster:     frame.Flags.MasterRequest,
		PurposeID:        frame.PurposeID,
		Priority:         frame.Priority,
		NumPairs:         frame.NumPairs,
		PairsLeft:        frame.NumPairs,
		Keep:             frame.Flags.Store,
		Atomic:           frame.Flags.Atomic,
		Consecutive:      frame.Flags.Consecutive,
		MinFidelity:      frame.MinFidelity,
		CreateTime:       q.simul.Now(),
		ScheduleCycle:    frame.ScheduleCycle,
		TimeoutCycle:     frame.TimeoutCycle,
		VirtualFinish:    frame.VirtualFinish,
		EstCyclesPerPair: frame.EstCyclesPerPair,
		confirmed:        true,
	}
	if q.isMaster {
		// The master assigns the authoritative sequence number and stamps
		// scheduler metadata; both travel back to the slave in the ACK.
		item.ID = wire.AbsoluteQueueID{QueueID: uint8(priority), QueueSeq: q.nextSeq[priority]}
		q.nextSeq[priority]++
		if q.stampFunc != nil {
			q.stampFunc(item)
		}
	} else {
		// The slave adopts the master's assignment.
		item.ID = frame.QueueID
		if int(item.ID.QueueID) != priority {
			return
		}
	}
	q.push(item)
	q.accepted[c/64] |= 1 << (c % 64)
	q.acceptedSeq[c%addWindow] = item.ID.QueueSeq
	old := c - addWindow
	q.accepted[old/64] &^= 1 << (old % 64)
	ack := frame
	ack.VirtualFinish = item.VirtualFinish
	q.sendAckFor(c, item.ID, ack)
	if q.onConfirmed != nil {
		q.onConfirmed(item)
	}
}

func (q *DistributedQueue) sendAckFor(cseq uint8, id wire.AbsoluteQueueID, orig wire.DQPFrame) {
	q.acksSent++
	ack := orig
	ack.Kind = wire.DQPAck
	ack.CommSeq = cseq
	ack.QueueID = id
	q.toPeer.Send(ack.Encode())
}

// handleAck completes a pending local ADD.
func (q *DistributedQueue) handleAck(frame wire.DQPFrame) {
	i := q.find(frame.CommSeq)
	if i < 0 {
		return
	}
	item := q.settle(i)
	if !q.isMaster {
		// Adopt the master-assigned queue ID and scheduling stamp, then
		// enqueue locally.
		item.ID = frame.QueueID
		item.VirtualFinish = frame.VirtualFinish
		if item.ID.QueueID == item.Priority {
			item.confirmed = true
			q.push(item)
		}
	} else {
		item.confirmed = true
	}
	if q.onConfirmed != nil {
		q.onConfirmed(item)
	}
}

// handleRej aborts a pending local ADD.
func (q *DistributedQueue) handleRej(frame wire.DQPFrame) {
	i := q.find(frame.CommSeq)
	if i < 0 {
		return
	}
	item := q.settle(i)
	if q.isMaster {
		q.Remove(item.ID)
	}
	if q.onRejected != nil {
		q.onRejected(item, wire.ErrRejected)
	}
}

// FailPending cancels every outgoing ADD handshake still awaiting an ACK —
// the link-down path, where no reply will ever arrive. Items the master
// already enqueued locally are left for the caller's queue sweep to fail
// (avoiding a double error); slave-side items that exist only as a pending
// handshake are reported rejected with the given code. Handshakes are
// visited in numeric CSEQ order, 0 to 255 whichever is oldest, so the
// emitted errors are deterministic.
func (q *DistributedQueue) FailPending(code wire.EGPError) {
	for cseq := range 256 {
		if i := q.find(uint8(cseq)); i >= 0 {
			item := q.settle(i)
			if !q.isMaster && q.onRejected != nil {
				q.onRejected(item, code)
			}
		}
	}
}

// Stats returns DQP message counters.
func (q *DistributedQueue) Stats() (adds, acks, rejects, retransmits uint64) {
	return q.addsSent, q.acksSent, q.rejectsSent, q.retransmissions
}
