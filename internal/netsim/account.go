package netsim

import (
	"repro/internal/egp"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/wire"
)

// LinkAccount is one link's delivered service over a run, accounted at the
// requests' origin side: per-priority fidelities (one per delivered pair)
// and latencies, what each endpoint's own requests received (the fairness
// inputs of Sec. 6.2), queue-depth samples and errors. A request
// has a record only while it is open: completion and failure delete it.
type LinkAccount struct {
	end sim.Time

	fidelity       [egp.NumQueues]obs.Series
	pairLatency    [egp.NumQueues]obs.Series
	requestLatency [egp.NumQueues]obs.Series
	scaledLatency  [egp.NumQueues]obs.Series
	origins        [2]OriginAccount // by role: A, B
	queue          obs.Series
	errors         map[wire.EGPError]int
	open           map[uint64]openRequest
}

// OriginAccount is what a link delivered to the requests of one endpoint.
type OriginAccount struct {
	// Pairs counts delivered pairs and FidelitySum adds their fidelities.
	Pairs       int
	FidelitySum float64
	// Completed counts fully served requests and LatencySum adds their
	// request latencies in seconds.
	Completed  int
	LatencySum float64
}

// openRequest is the record of a submitted request that has not ended.
type openRequest struct {
	submitted sim.Time
	priority  int
	origin    int // role index: 0 = A, 1 = B
	numPairs  int
}

func roleIndex(role string) int {
	if role == roleB {
		return 1
	}
	return 0
}

// submitted opens the record of an accepted CREATE. An out-of-range
// priority is filed under MD, the lane the EGP queues it in.
func (a *LinkAccount) submitted(key uint64, role string, priority, numPairs int, at sim.Time) {
	if priority < 0 || priority >= egp.NumQueues {
		priority = egp.PriorityMD
	}
	if a.open == nil {
		a.open = make(map[uint64]openRequest)
	}
	a.open[key] = openRequest{submitted: at, priority: priority, origin: roleIndex(role), numPairs: numPairs}
}

// delivered accounts one pair delivered to the request under key; done
// marks its last pair, which closes the record.
func (a *LinkAccount) delivered(key uint64, role string, priority int, fidelity float64, at sim.Time, done bool) {
	a.fidelity[priority].Add(fidelity)
	o := &a.origins[roleIndex(role)]
	o.Pairs++
	o.FidelitySum += fidelity
	r, ok := a.open[key]
	if !ok {
		return
	}
	latency := at.Sub(r.submitted).Seconds()
	a.pairLatency[priority].Add(latency)
	if !done {
		return
	}
	delete(a.open, key)
	a.requestLatency[r.priority].Add(latency)
	a.scaledLatency[r.priority].Add(latency / float64(max(1, r.numPairs)))
	a.origins[r.origin].Completed++
	a.origins[r.origin].LatencySum += latency
}

// failed accounts a request that ended in an error and closes its record.
func (a *LinkAccount) failed(key uint64, code wire.EGPError) {
	if a.errors == nil {
		a.errors = make(map[wire.EGPError]int)
	}
	a.errors[code]++
	delete(a.open, key)
}

// DurationSeconds returns the length of the measured interval, which starts
// at time 0 and ends at the last Network.Run.
func (a *LinkAccount) DurationSeconds() float64 { return a.end.Seconds() }

// Pairs returns how many pairs were delivered in a priority lane.
func (a *LinkAccount) Pairs(priority int) int { return a.fidelity[priority].Count() }

// Throughput returns delivered pairs per simulated second in a priority
// lane.
func (a *LinkAccount) Throughput(priority int) float64 {
	return obs.SafeRate(float64(a.Pairs(priority)), a.DurationSeconds())
}

// Fidelity returns the delivered fidelities of a priority lane.
func (a *LinkAccount) Fidelity(priority int) *obs.Series { return &a.fidelity[priority] }

// RequestLatency returns the latencies of completed requests (last pair
// minus submission, seconds) of a priority lane.
func (a *LinkAccount) RequestLatency(priority int) *obs.Series {
	return &a.requestLatency[priority]
}

// ScaledLatency returns the request latencies divided by the number of
// requested pairs of a priority lane.
func (a *LinkAccount) ScaledLatency(priority int) *obs.Series { return &a.scaledLatency[priority] }

// QueueLength returns the sampled distributed-queue lengths.
func (a *LinkAccount) QueueLength() *obs.Series { return &a.queue }

// Origin returns what the requests of the endpoint playing role ("A" or
// "B") received.
func (a *LinkAccount) Origin(role string) OriginAccount { return a.origins[roleIndex(role)] }

// Errors returns how many requests failed with the given code.
func (a *LinkAccount) Errors(code wire.EGPError) int { return a.errors[code] }

// Open returns how many submitted requests have neither completed nor
// failed.
func (a *LinkAccount) Open() int { return len(a.open) }
