package egp

// Scheduler selects which ready request the link layer should serve next
// (Section 5.2.4). Implementations must be deterministic functions of the
// shared queue state so that both nodes select the same request without
// extra communication.
type Scheduler interface {
	// Next returns the item to serve at the given MHP cycle from the ready
	// items of the distributed queue, or nil when nothing is ready.
	Next(q *DistributedQueue, cycle uint64) *QueueItem
	// Stamp assigns scheduler-specific metadata (e.g. the WFQ virtual finish
	// time) to a new item before it is enqueued. Only the queue master
	// stamps items; the value travels to the peer inside the ADD frame.
	Stamp(item *QueueItem)
	// Name identifies the strategy in experiment output.
	Name() string
}

// isReady reports whether an item may be served at the cycle. Schedulers run
// once per MHP cycle, so they iterate the lanes in place instead of
// materialising ready-item slices.
func isReady(it *QueueItem, cycle uint64) bool {
	return it.Ready(cycle) && it.PairsLeft > 0
}

// firstReady returns the first servable item of one lane in queue order, or
// nil when none is ready.
func firstReady(q *DistributedQueue, priority int, cycle uint64) *QueueItem {
	for _, it := range q.Items(priority) {
		if isReady(it, cycle) {
			return it
		}
	}
	return nil
}

// FCFSScheduler serves requests strictly in arrival order across all
// priority lanes (a single logical queue), the baseline strategy of
// Section 6.3.
type FCFSScheduler struct{}

// NewFCFS returns the first-come-first-serve scheduler.
func NewFCFS() *FCFSScheduler { return &FCFSScheduler{} }

// Name implements Scheduler.
func (s *FCFSScheduler) Name() string { return "FCFS" }

// Stamp implements Scheduler; FCFS orders by schedule cycle so no extra
// metadata is needed.
func (s *FCFSScheduler) Stamp(item *QueueItem) {}

// Next picks the ready item that was scheduled earliest, breaking ties by
// (queue, sequence) so both nodes agree.
func (s *FCFSScheduler) Next(q *DistributedQueue, cycle uint64) *QueueItem {
	var best *QueueItem
	for priority := 0; priority < NumQueues; priority++ {
		for _, it := range q.Items(priority) {
			if isReady(it, cycle) && (best == nil || lessBy(it.ScheduleCycle, best.ScheduleCycle, it, best)) {
				best = it
			}
		}
	}
	return best
}

// lessBy orders two items by their keys ka and kb, then by (queue,
// sequence), the sequence in circular arithmetic as it wraps, so that both
// nodes agree.
func lessBy(ka, kb uint64, a, b *QueueItem) bool {
	if ka != kb {
		return ka < kb
	}
	if a.ID.QueueID != b.ID.QueueID {
		return a.ID.QueueID < b.ID.QueueID
	}
	return seqBefore(a.ID.QueueSeq, b.ID.QueueSeq)
}

// WFQScheduler gives strict priority to the NL lane and arbitrates between
// the CK and MD lanes with weighted fair queuing (Section 6.3, "LowerWFQ"
// with CK weight 2 and "HigherWFQ" with CK weight 10 in Appendix C.2).
type WFQScheduler struct {
	// WeightCK and WeightMD are the WFQ weights of the CK and MD lanes.
	WeightCK float64
	WeightMD float64

	// virtualTime advances as pairs are served; virtual finish times are
	// stamped from it at enqueue.
	virtualTime float64
	lastFinish  [NumQueues]float64
	name        string
}

// NewHigherWFQ returns the paper's HigherWFQ strategy: NL strict priority,
// CK weight 10, MD weight 1.
func NewHigherWFQ() *WFQScheduler {
	return &WFQScheduler{WeightCK: 10, WeightMD: 1, name: "HigherWFQ"}
}

// NewLowerWFQ returns the paper's LowerWFQ strategy: NL strict priority, CK
// weight 2, MD weight 1.
func NewLowerWFQ() *WFQScheduler {
	return &WFQScheduler{WeightCK: 2, WeightMD: 1, name: "LowerWFQ"}
}

// Name implements Scheduler.
func (s *WFQScheduler) Name() string { return s.name }

// Stamp assigns the item's virtual finish time: the maximum of the current
// virtual time and the lane's previous finish time, plus the item's service
// demand (pairs × expected cycles) divided by the lane weight.
func (s *WFQScheduler) Stamp(item *QueueItem) {
	lane := int(item.Priority)
	weight := 1.0
	switch lane {
	case PriorityCK:
		weight = s.WeightCK
	case PriorityMD:
		weight = s.WeightMD
	case PriorityNL:
		// NL is served with strict priority; its stamp is only used to
		// order NL items among themselves.
		weight = 1
	}
	demand := float64(item.NumPairs) * float64(max(item.EstCyclesPerPair, 1))
	start := s.virtualTime
	if s.lastFinish[lane] > start {
		start = s.lastFinish[lane]
	}
	finish := start + demand/weight
	s.lastFinish[lane] = finish
	item.VirtualFinish = uint64(finish)
}

// Next implements Scheduler: NL first (in queue order), then the CK/MD item
// with the smallest virtual finish time.
func (s *WFQScheduler) Next(q *DistributedQueue, cycle uint64) *QueueItem {
	if nl := firstReady(q, PriorityNL, cycle); nl != nil {
		return nl
	}
	var best *QueueItem
	for _, priority := range [...]int{PriorityCK, PriorityMD} {
		for _, it := range q.Items(priority) {
			if isReady(it, cycle) && (best == nil || lessBy(it.VirtualFinish, best.VirtualFinish, it, best)) {
				best = it
			}
		}
	}
	// Advance virtual time to the served item's stamp so later arrivals do
	// not start in the past.
	if best != nil && float64(best.VirtualFinish) > s.virtualTime {
		s.virtualTime = float64(best.VirtualFinish)
	}
	return best
}

// NewScheduler returns a scheduler by its experiment name ("FCFS",
// "LowerWFQ", "HigherWFQ").
func NewScheduler(name string) Scheduler {
	switch name {
	case "FCFS", "fcfs", "":
		return NewFCFS()
	case "LowerWFQ", "lowerwfq":
		return NewLowerWFQ()
	case "HigherWFQ", "higherwfq", "WFQ", "wfq":
		return NewHigherWFQ()
	default:
		panic("egp: unknown scheduler " + name)
	}
}
