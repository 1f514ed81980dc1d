// Package obs is the simulator's observability substrate: a flight-recorder
// tracer (per-shard, per-layer ring buffers of compact trace records, merged
// deterministically and exported as Chrome trace-event JSON for Perfetto) and
// a metrics registry (counters read from the layers' own fields and
// fixed-log-bucket histograms, snapshotable as JSON or a text table).
//
// Both halves are strictly pay-for-what-you-use. Every recording method has a
// nil receiver fast path, so a disabled tracer or unregistered metric costs
// one predictable nil check and zero allocations on the hot path; with
// observability off the simulation trajectory is byte-identical because the
// tracer never draws randomness and never schedules events.
package obs

import (
	"sort"

	"repro/internal/sim"
)

// Layer identifies which subsystem produced a trace record. Records are
// merged across layers in (At, Layer, Track, Seq) order, so the layer also
// acts as the deterministic tie-break between subsystems that record at the
// same sim timestamp.
type Layer uint8

const (
	// LayerSim carries engine-level records: dispatch batches and shard
	// barrier windows. These depend on the shard count by nature.
	LayerSim Layer = iota
	// LayerMHP carries physical-layer attempt and REPLY records.
	LayerMHP
	// LayerEGP carries link-layer OK/error/expiry lifecycle records.
	LayerEGP
	// LayerNetsim carries per-link traffic records (submit, OK, queue depth).
	LayerNetsim
	// LayerNetwork carries end-to-end request lifecycle spans
	// (CREATE -> segment OKs -> swaps -> corrections -> OK/TIMEOUT).
	LayerNetwork

	// NumLayers is the number of distinct layers; each shard owns one ring
	// per layer so hot engine records never evict sparse protocol records.
	NumLayers = int(LayerNetwork) + 1
)

// String names the layer for the Chrome trace "cat" field.
func (l Layer) String() string {
	switch l {
	case LayerSim:
		return "sim"
	case LayerMHP:
		return "mhp"
	case LayerEGP:
		return "egp"
	case LayerNetsim:
		return "netsim"
	case LayerNetwork:
		return "network"
	}
	return "?"
}

// Kind identifies what happened. The A/B payload fields of a Record are
// interpreted per kind (documented on each constant).
type Kind uint8

const (
	// KindBatch is one same-timestamp dispatch batch. A = batch length,
	// B = events still pending after the batch was collected.
	KindBatch Kind = iota
	// KindWindow is one sharded-engine window, recorded at the barrier
	// where the shards meet. A = messages merged across shards (always 0:
	// shards exchange none), B = window span in sim nanoseconds.
	KindWindow
	// KindQueueDepth samples an EGP queue's total occupancy. A = depth.
	KindQueueDepth
	// KindMHPAttempt is one triggered entanglement attempt. A = MHP cycle,
	// B = 1 for create-and-keep, 0 for measure-directly.
	KindMHPAttempt
	// KindMHPReply is a REPLY arriving back at a node. A = outcome
	// (1/2 success, 0 failure), B = midpoint sequence number.
	KindMHPReply
	// KindHerald is a midpoint heralding decision. A = outcome (1/2 success,
	// 0 failure), B = midpoint sequence number (0 on failure).
	KindHerald
	// KindHeraldDrop is a midpoint discard before the BSM: A = 0 time window
	// mismatch, 1 missing partner, 2 queue-ID mismatch.
	KindHeraldDrop
	// KindEGPOK is a delivered pair. A = create ID, B = pairs remaining.
	KindEGPOK
	// KindEGPError is a request rejection or failure. A = create ID
	// (-1 when unknown), B = error code.
	KindEGPError
	// KindEGPExpire is an EXPIRE exchange for a desynchronised pair.
	// A = absolute MHP sequence, B = 0 sent, 1 received.
	KindEGPExpire
	// KindSubmit is a CREATE submitted to a link. A = create ID,
	// B = requested pairs.
	KindSubmit
	// KindLinkOK is an origin-side delivered link pair. A = create ID,
	// B = pairs remaining.
	KindLinkOK
	// KindE2ECreate opens an end-to-end request span. A = source node,
	// B = destination node. Track = request ID.
	KindE2ECreate
	// KindE2ESegment marks one constituent link segment ready.
	// A = segment endpoint a, B = endpoint b.
	KindE2ESegment
	// KindE2ESwap marks an entanglement swap at a repeater. A = swapping
	// node, B = pre-correction Bell label.
	KindE2ESwap
	// KindE2ECorrection marks the Pauli correction applied at the b-end.
	// A = correcting node, B = Bell label received in the frame.
	KindE2ECorrection
	// KindE2EOK marks one delivered end-to-end pair. A = pairs delivered so
	// far, B = pairs requested.
	KindE2EOK
	// KindE2EDone closes the span successfully. A = pairs delivered.
	KindE2EDone
	// KindE2EFail closes the span with a failure. A = pairs delivered,
	// B = the link-layer error code (wire.EGPError).
	KindE2EFail
	// KindLinkState is a link admin-state transition from the fault
	// injector. A = new state, B = previous state (netsim.LinkState values).
	// Track = FaultTrack | link ID, so fault events get their own track.
	KindLinkState
	// KindReroute marks an in-flight end-to-end request re-pathing around a
	// dead link. A = reroute count for the request so far, B = retry backoff
	// in sim nanoseconds. Track = request ID.
	KindReroute
)

// String names the kind for the Chrome trace "name" field.
func (k Kind) String() string {
	switch k {
	case KindBatch:
		return "batch"
	case KindWindow:
		return "window"
	case KindQueueDepth:
		return "queue_depth"
	case KindMHPAttempt:
		return "attempt"
	case KindMHPReply:
		return "reply"
	case KindHerald:
		return "herald"
	case KindHeraldDrop:
		return "herald_drop"
	case KindEGPOK:
		return "egp_ok"
	case KindEGPError:
		return "egp_error"
	case KindEGPExpire:
		return "egp_expire"
	case KindSubmit:
		return "submit"
	case KindLinkOK:
		return "link_ok"
	case KindE2ECreate:
		return "CREATE"
	case KindE2ESegment:
		return "segment_ok"
	case KindE2ESwap:
		return "swap"
	case KindE2ECorrection:
		return "correction"
	case KindE2EOK:
		return "pair_ok"
	case KindE2EDone:
		return "OK"
	case KindE2EFail:
		return "TIMEOUT"
	case KindLinkState:
		return "link_state"
	case KindReroute:
		return "reroute"
	}
	return "?"
}

// BarrierTrack is the reserved sim-layer track identity for barrier-window
// records, keeping them off the per-shard batch tracks. Shard counts are
// small integers, so the value can never collide with a real shard index.
const BarrierTrack = uint64(1) << 32

// FaultTrack is the reserved netsim-layer track identity for fault-injection
// records (link admin-state transitions): OR'd with the link ID it keeps
// fault events on their own track, away from the per-link traffic tracks.
const FaultTrack = uint64(1) << 33

// Record is one compact trace event: 48 bytes, no pointers, so rings are
// GC-transparent and recording is a few stores.
type Record struct {
	At    sim.Time // sim timestamp
	Track uint64   // track identity: link ID, request ID, or shard index
	Seq   uint64   // per-ring record count at recording time (tie-break)
	A, B  int64    // kind-specific payload
	Layer Layer
	Kind  Kind
}

// Ring is a fixed-capacity flight-recorder buffer owned by one (shard,
// layer). When full it overwrites the oldest record, so after a long run it
// holds the most recent window of activity. All methods are nil-safe: a nil
// *Ring records nothing at the cost of one branch.
type Ring struct {
	layer Layer
	shard int
	mask  uint64
	n     uint64 // total records ever written; n & mask is the write cursor
	buf   []Record
}

// Record appends one trace record. Zero allocations; safe on a nil ring.
func (r *Ring) Record(at sim.Time, kind Kind, track uint64, a, b int64) {
	if r == nil {
		return
	}
	r.buf[r.n&r.mask] = Record{
		At:    at,
		Track: track,
		Seq:   r.n,
		A:     a,
		B:     b,
		Layer: r.layer,
		Kind:  kind,
	}
	r.n++
}

// Len reports how many records the ring currently holds.
func (r *Ring) Len() int {
	if r == nil {
		return 0
	}
	if r.n < uint64(len(r.buf)) {
		return int(r.n)
	}
	return len(r.buf)
}

// Dropped reports how many records were overwritten by newer ones.
func (r *Ring) Dropped() uint64 {
	if r == nil || r.n <= uint64(len(r.buf)) {
		return 0
	}
	return r.n - uint64(len(r.buf))
}

// Records appends the ring's live records to dst in write order.
func (r *Ring) Records(dst []Record) []Record {
	if r == nil || r.n == 0 {
		return dst
	}
	if r.n <= uint64(len(r.buf)) {
		return append(dst, r.buf[:r.n]...)
	}
	head := r.n & r.mask
	dst = append(dst, r.buf[head:]...)
	return append(dst, r.buf[:head]...)
}

// Tracer owns the per-(shard, layer) rings of one run. A nil *Tracer is the
// disabled tracer: Ring returns nil, and every downstream Record call on the
// resulting nil rings is a no-op.
type Tracer struct {
	shards   int
	capacity int
	rings    []*Ring // shards*NumLayers, indexed shard*NumLayers+layer
}

// NewTracer builds a tracer with the given shard count and per-ring record
// capacity (rounded up to a power of two; minimum 16). Ring buffers are
// allocated lazily at wiring time, never on the recording path.
func NewTracer(shards, capacity int) *Tracer {
	if shards < 1 {
		shards = 1
	}
	cap2 := 16
	for cap2 < capacity {
		cap2 <<= 1
	}
	return &Tracer{
		shards:   shards,
		capacity: cap2,
		rings:    make([]*Ring, shards*NumLayers),
	}
}

// Shards reports the tracer's shard count.
func (t *Tracer) Shards() int {
	if t == nil {
		return 0
	}
	return t.shards
}

// Ring returns the ring of one (shard, layer), allocating its buffer on
// first use. Returns nil on a nil tracer or an out-of-range shard, so
// wiring code can pass the result straight into layer configs.
func (t *Tracer) Ring(shard int, layer Layer) *Ring {
	if t == nil || shard < 0 || shard >= t.shards {
		return nil
	}
	i := shard*NumLayers + int(layer)
	if t.rings[i] == nil {
		t.rings[i] = &Ring{
			layer: layer,
			shard: shard,
			mask:  uint64(t.capacity) - 1,
			buf:   make([]Record, t.capacity),
		}
	}
	return t.rings[i]
}

// Records merges every ring's live records into deterministic
// (At, Layer, Track, Seq) order. Because each protocol entity (link, request)
// records into exactly one ring, the per-ring Seq breaks same-timestamp ties
// of one track identically at every shard count.
func (t *Tracer) Records() []Record {
	if t == nil {
		return nil
	}
	total := 0
	for _, r := range t.rings {
		total += r.Len()
	}
	out := make([]Record, 0, total)
	for _, r := range t.rings {
		out = r.Records(out)
	}
	sort.SliceStable(out, func(i, j int) bool {
		a, b := &out[i], &out[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Track != b.Track {
			return a.Track < b.Track
		}
		return a.Seq < b.Seq
	})
	return out
}

// Dropped sums overwritten records across all rings.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	var total uint64
	for _, r := range t.rings {
		total += r.Dropped()
	}
	return total
}
