// Package wire implements the binary packet formats of the paper's
// Appendix E: the MHP GEN and REPLY frames exchanged with the heralding
// station, the distributed-queue protocol frames (ADD/ACK/REJ), the link
// layer CREATE request, the OK responses for create-and-keep and
// create-and-measure requests, the EXPIRE/EXPIRE-ACK recovery messages and
// the EGP error frame.
//
// Every message type provides Encode/Decode with strict length and range
// validation; quantities that the figures show as fractional (fidelity,
// bright-state population, goodness) are carried as 16-bit fixed point
// values in [0,1].
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Byte order used on the wire: network byte order.
var order = binary.BigEndian

// Errors returned by Decode functions.
var (
	ErrShortFrame   = errors.New("wire: frame too short")
	ErrBadFrameType = errors.New("wire: unexpected frame type")
	ErrFieldRange   = errors.New("wire: field out of range")
)

// FrameType identifies the message carried in a frame; it occupies the first
// byte of every encoding so a demultiplexer can dispatch on it.
type FrameType uint8

// Frame types.
const (
	FrameGEN FrameType = iota + 1
	FrameREPLY
	FrameDQPAdd
	FrameDQPAck
	FrameDQPRej
	FrameCreate
	FrameOKKeep
	FrameOKMeasure
	FrameExpire
	FrameExpireAck
	_ // 11 and 12 were the memory advertisements REQ(E) and ACK(E)
	_
	FrameErr
	FramePoll
)

// String names the frame type.
func (f FrameType) String() string {
	switch f {
	case FrameGEN:
		return "GEN"
	case FrameREPLY:
		return "REPLY"
	case FrameDQPAdd:
		return "DQP-ADD"
	case FrameDQPAck:
		return "DQP-ACK"
	case FrameDQPRej:
		return "DQP-REJ"
	case FrameCreate:
		return "CREATE"
	case FrameOKKeep:
		return "OK-K"
	case FrameOKMeasure:
		return "OK-M"
	case FrameExpire:
		return "EXPIRE"
	case FrameExpireAck:
		return "EXPIRE-ACK"
	case FrameErr:
		return "ERR"
	case FramePoll:
		return "POLL"
	default:
		return fmt.Sprintf("frame(%d)", uint8(f))
	}
}

// PeekType returns the frame type of an encoded frame without decoding it.
func PeekType(b []byte) (FrameType, error) {
	if len(b) < 1 {
		return 0, ErrShortFrame
	}
	return FrameType(b[0]), nil
}

// fixed16 encodes a value in [0,1] as a 16-bit fixed point number.
func fixed16(v float64) uint16 {
	if v < 0 {
		v = 0
	}
	if v > 1 {
		v = 1
	}
	return uint16(math.Round(v * 65535))
}

// unfixed16 decodes a 16-bit fixed point number back to [0,1].
func unfixed16(v uint16) float64 { return float64(v) / 65535 }

// AbsoluteQueueID is the (queue, sequence-within-queue) pair identifying one
// item of the distributed queue (Section E.1.1).
type AbsoluteQueueID struct {
	QueueID  uint8
	QueueSeq uint16
}

// String renders the absolute queue ID as (j, i_j).
func (a AbsoluteQueueID) String() string { return fmt.Sprintf("(%d,%d)", a.QueueID, a.QueueSeq) }

// MHPOutcome mirrors the OT field of the REPLY frame: 0 failure, 1/2 the two
// heralded Bell states, and the error codes of Protocol 1.
type MHPOutcome uint8

// Outcome and error codes of the midpoint REPLY (Figure 28).
const (
	OutcomeFailure    MHPOutcome = 0
	OutcomeStateOne   MHPOutcome = 1 // |Ψ+⟩
	OutcomeStateTwo   MHPOutcome = 2 // |Ψ−⟩
	ErrQueueMismatch  MHPOutcome = 0b001 | errFlag
	ErrTimeMismatch   MHPOutcome = 0b010 | errFlag
	ErrNoMessageOther MHPOutcome = 0b100 | errFlag
	ErrGeneralFailure MHPOutcome = 0b111 | errFlag // local GEN_FAIL, never on the wire
	errFlag           MHPOutcome = 0x80
)

// IsError reports whether the outcome encodes a protocol error rather than a
// physical failure/success.
func (o MHPOutcome) IsError() bool { return o&errFlag != 0 }

// Success reports whether the outcome heralds an entangled pair.
func (o MHPOutcome) Success() bool { return o == OutcomeStateOne || o == OutcomeStateTwo }

// String names the outcome.
func (o MHPOutcome) String() string {
	switch o {
	case OutcomeFailure:
		return "failure"
	case OutcomeStateOne:
		return "psi+"
	case OutcomeStateTwo:
		return "psi-"
	case ErrQueueMismatch:
		return "QUEUE_MISMATCH"
	case ErrTimeMismatch:
		return "TIME_MISMATCH"
	case ErrNoMessageOther:
		return "NO_MESSAGE_OTHER"
	case ErrGeneralFailure:
		return "GEN_FAIL"
	default:
		return fmt.Sprintf("outcome(%d)", uint8(o))
	}
}

// GENFrame is the physical-layer frame sent by a node to the heralding
// station alongside the photon (Figure 27).
type GENFrame struct {
	QueueID   AbsoluteQueueID
	Timestamp uint64 // MHP cycle number, used by H to match detection windows
}

// GENFrameLen is the encoded size of a GEN frame.
const GENFrameLen = 1 + 1 + 2 + 8

// Put encodes the frame into a fixed-size buffer, so a sender that reuses the
// buffer encodes without allocating.
func (g GENFrame) Put(b *[GENFrameLen]byte) {
	b[0] = byte(FrameGEN)
	b[1] = g.QueueID.QueueID
	order.PutUint16(b[2:], g.QueueID.QueueSeq)
	order.PutUint64(b[4:], g.Timestamp)
}

// Encode serialises the frame.
func (g GENFrame) Encode() []byte {
	b := new([GENFrameLen]byte)
	g.Put(b)
	return b[:]
}

// DecodeGEN parses a GEN frame.
func DecodeGEN(b []byte) (GENFrame, error) {
	var g GENFrame
	if len(b) < GENFrameLen {
		return g, fmt.Errorf("%w: GEN needs %d bytes, got %d", ErrShortFrame, GENFrameLen, len(b))
	}
	if FrameType(b[0]) != FrameGEN {
		return g, fmt.Errorf("%w: %v", ErrBadFrameType, FrameType(b[0]))
	}
	g.QueueID.QueueID = b[1]
	g.QueueID.QueueSeq = order.Uint16(b[2:])
	g.Timestamp = order.Uint64(b[4:])
	return g, nil
}

// REPLYFrame is the heralding station's response (Figure 28): the outcome,
// the midpoint sequence number and the absolute queue IDs submitted by the
// receiver and its peer.
type REPLYFrame struct {
	Outcome   MHPOutcome
	MHPSeq    uint16
	QueueID   AbsoluteQueueID // the receiver's own submitted queue ID
	PeerQueue AbsoluteQueueID // the queue ID submitted by the peer
}

// REPLYFrameLen is the encoded size of a REPLY frame.
const REPLYFrameLen = 1 + 1 + 2 + 3 + 3

// Put encodes the frame into a fixed-size buffer, so a sender that reuses the
// buffer encodes without allocating.
func (r REPLYFrame) Put(b *[REPLYFrameLen]byte) {
	b[0] = byte(FrameREPLY)
	b[1] = byte(r.Outcome)
	order.PutUint16(b[2:], r.MHPSeq)
	b[4] = r.QueueID.QueueID
	order.PutUint16(b[5:], r.QueueID.QueueSeq)
	b[7] = r.PeerQueue.QueueID
	order.PutUint16(b[8:], r.PeerQueue.QueueSeq)
}

// Encode serialises the frame.
func (r REPLYFrame) Encode() []byte {
	b := new([REPLYFrameLen]byte)
	r.Put(b)
	return b[:]
}

// DecodeREPLY parses a REPLY frame.
func DecodeREPLY(b []byte) (REPLYFrame, error) {
	var r REPLYFrame
	if len(b) < REPLYFrameLen {
		return r, fmt.Errorf("%w: REPLY needs %d bytes, got %d", ErrShortFrame, REPLYFrameLen, len(b))
	}
	if FrameType(b[0]) != FrameREPLY {
		return r, fmt.Errorf("%w: %v", ErrBadFrameType, FrameType(b[0]))
	}
	r.Outcome = MHPOutcome(b[1])
	r.MHPSeq = order.Uint16(b[2:])
	r.QueueID.QueueID = b[4]
	r.QueueID.QueueSeq = order.Uint16(b[5:])
	r.PeerQueue.QueueID = b[7]
	r.PeerQueue.QueueSeq = order.Uint16(b[8:])
	return r, nil
}

// RequestFlags packs the STR/ATM/MD/MR bits of the DQP frame (Figure 24).
type RequestFlags struct {
	Store         bool // K-type request (store entanglement)
	Atomic        bool // all pairs must be available simultaneously
	MeasureDirect bool // M-type request
	MasterRequest bool // the request originated at the queue master
	Consecutive   bool // issue an OK per generated pair
}

func (f RequestFlags) pack() byte {
	var b byte
	if f.Store {
		b |= 1 << 0
	}
	if f.Atomic {
		b |= 1 << 1
	}
	if f.MeasureDirect {
		b |= 1 << 2
	}
	if f.MasterRequest {
		b |= 1 << 3
	}
	if f.Consecutive {
		b |= 1 << 4
	}
	return b
}

func unpackFlags(b byte) RequestFlags {
	return RequestFlags{
		Store:         b&(1<<0) != 0,
		Atomic:        b&(1<<1) != 0,
		MeasureDirect: b&(1<<2) != 0,
		MasterRequest: b&(1<<3) != 0,
		Consecutive:   b&(1<<4) != 0,
	}
}

// DQPFrameKind distinguishes ADD/ACK/REJ (the FT field of Figure 24).
type DQPFrameKind uint8

// DQP frame kinds.
const (
	DQPAdd DQPFrameKind = 0
	DQPAck DQPFrameKind = 1
	DQPRej DQPFrameKind = 2
)

// DQPFrame is a distributed-queue protocol message (Figure 24). ADD carries
// the full request description; ACK and REJ echo the addressing fields.
type DQPFrame struct {
	Kind             DQPFrameKind
	CommSeq          uint8 // CSEQ: communication sequence number
	QueueID          AbsoluteQueueID
	ScheduleCycle    uint64 // min_time expressed as an MHP cycle number
	TimeoutCycle     uint64 // cycle at which the request times out (0 = none)
	MinFidelity      float64
	PurposeID        uint16
	CreateID         uint16
	NumPairs         uint16
	Priority         uint8
	VirtualFinish    uint64 // scheduling info for weighted fair queuing
	EstCyclesPerPair uint32
	Flags            RequestFlags
}

const dqpFrameLen = 1 + 1 + 1 + 1 + 2 + 8 + 8 + 2 + 2 + 2 + 2 + 1 + 8 + 4 + 1

func dqpFrameType(kind DQPFrameKind) FrameType {
	switch kind {
	case DQPAdd:
		return FrameDQPAdd
	case DQPAck:
		return FrameDQPAck
	case DQPRej:
		return FrameDQPRej
	default:
		panic("wire: unknown DQP frame kind")
	}
}

// Encode serialises the frame.
func (d DQPFrame) Encode() []byte {
	b := make([]byte, dqpFrameLen)
	b[0] = byte(dqpFrameType(d.Kind))
	b[1] = byte(d.Kind)
	b[2] = d.CommSeq
	b[3] = d.QueueID.QueueID
	order.PutUint16(b[4:], d.QueueID.QueueSeq)
	order.PutUint64(b[6:], d.ScheduleCycle)
	order.PutUint64(b[14:], d.TimeoutCycle)
	order.PutUint16(b[22:], fixed16(d.MinFidelity))
	order.PutUint16(b[24:], d.PurposeID)
	order.PutUint16(b[26:], d.CreateID)
	order.PutUint16(b[28:], d.NumPairs)
	b[30] = d.Priority
	order.PutUint64(b[31:], d.VirtualFinish)
	order.PutUint32(b[39:], d.EstCyclesPerPair)
	b[43] = d.Flags.pack()
	return b
}

// DecodeDQP parses a DQP frame of any kind.
func DecodeDQP(b []byte) (DQPFrame, error) {
	var d DQPFrame
	if len(b) < dqpFrameLen {
		return d, fmt.Errorf("%w: DQP needs %d bytes, got %d", ErrShortFrame, dqpFrameLen, len(b))
	}
	ft := FrameType(b[0])
	if ft != FrameDQPAdd && ft != FrameDQPAck && ft != FrameDQPRej {
		return d, fmt.Errorf("%w: %v", ErrBadFrameType, ft)
	}
	d.Kind = DQPFrameKind(b[1])
	if d.Kind > DQPRej {
		return d, fmt.Errorf("%w: DQP kind %d", ErrFieldRange, d.Kind)
	}
	if dqpFrameType(d.Kind) != ft {
		return d, fmt.Errorf("%w: frame type %v does not match kind %d", ErrBadFrameType, ft, d.Kind)
	}
	d.CommSeq = b[2]
	d.QueueID.QueueID = b[3]
	d.QueueID.QueueSeq = order.Uint16(b[4:])
	d.ScheduleCycle = order.Uint64(b[6:])
	d.TimeoutCycle = order.Uint64(b[14:])
	d.MinFidelity = unfixed16(order.Uint16(b[22:]))
	d.PurposeID = order.Uint16(b[24:])
	d.CreateID = order.Uint16(b[26:])
	d.NumPairs = order.Uint16(b[28:])
	d.Priority = b[30]
	d.VirtualFinish = order.Uint64(b[31:])
	d.EstCyclesPerPair = order.Uint32(b[39:])
	d.Flags = unpackFlags(b[43])
	return d, nil
}

// CreateFrame is the CREATE request handed to the link layer by a higher
// layer (Figure 31).
type CreateFrame struct {
	RemoteNodeID uint32
	MinFidelity  float64
	MaxTimeMicro uint32 // maximum waiting time in microseconds (0 = unbounded)
	PurposeID    uint16
	NumPairs     uint16
	Priority     uint8
	TypeKeep     bool // true = create-and-keep (K), false = measure-directly (M)
	Atomic       bool
	Consecutive  bool
}

const createFrameLen = 1 + 4 + 2 + 4 + 2 + 2 + 1 + 1

// Encode serialises the frame.
func (c CreateFrame) Encode() []byte {
	b := make([]byte, createFrameLen)
	b[0] = byte(FrameCreate)
	order.PutUint32(b[1:], c.RemoteNodeID)
	order.PutUint16(b[5:], fixed16(c.MinFidelity))
	order.PutUint32(b[7:], c.MaxTimeMicro)
	order.PutUint16(b[11:], c.PurposeID)
	order.PutUint16(b[13:], c.NumPairs)
	b[15] = c.Priority
	var flags byte
	if c.TypeKeep {
		flags |= 1 << 0
	}
	if c.Atomic {
		flags |= 1 << 1
	}
	if c.Consecutive {
		flags |= 1 << 2
	}
	b[16] = flags
	return b
}

// DecodeCreate parses a CREATE frame.
func DecodeCreate(b []byte) (CreateFrame, error) {
	var c CreateFrame
	if len(b) < createFrameLen {
		return c, fmt.Errorf("%w: CREATE needs %d bytes, got %d", ErrShortFrame, createFrameLen, len(b))
	}
	if FrameType(b[0]) != FrameCreate {
		return c, fmt.Errorf("%w: %v", ErrBadFrameType, FrameType(b[0]))
	}
	c.RemoteNodeID = order.Uint32(b[1:])
	c.MinFidelity = unfixed16(order.Uint16(b[5:]))
	c.MaxTimeMicro = order.Uint32(b[7:])
	c.PurposeID = order.Uint16(b[11:])
	c.NumPairs = order.Uint16(b[13:])
	c.Priority = b[15]
	c.TypeKeep = b[16]&(1<<0) != 0
	c.Atomic = b[16]&(1<<1) != 0
	c.Consecutive = b[16]&(1<<2) != 0
	return c, nil
}

// OKKeepFrame is the OK response for a create-and-keep request (Figure 37).
type OKKeepFrame struct {
	CreateID     uint16
	LogicalQubit uint8
	Directional  bool // true when the request originated at this node
	SeqNumber    uint16
	PurposeID    uint16
	RemoteNodeID uint32
	Goodness     float64
	GoodnessTime uint32 // microseconds since run start
	CreateTime   uint32 // microseconds since run start
}

const okKeepFrameLen = 1 + 2 + 1 + 1 + 2 + 2 + 4 + 2 + 4 + 4

// Encode serialises the frame.
func (o OKKeepFrame) Encode() []byte {
	b := make([]byte, okKeepFrameLen)
	b[0] = byte(FrameOKKeep)
	order.PutUint16(b[1:], o.CreateID)
	b[3] = o.LogicalQubit
	if o.Directional {
		b[4] = 1
	}
	order.PutUint16(b[5:], o.SeqNumber)
	order.PutUint16(b[7:], o.PurposeID)
	order.PutUint32(b[9:], o.RemoteNodeID)
	order.PutUint16(b[13:], fixed16(o.Goodness))
	order.PutUint32(b[15:], o.GoodnessTime)
	order.PutUint32(b[19:], o.CreateTime)
	return b
}

// DecodeOKKeep parses an OK-K frame.
func DecodeOKKeep(b []byte) (OKKeepFrame, error) {
	var o OKKeepFrame
	if len(b) < okKeepFrameLen {
		return o, fmt.Errorf("%w: OK-K needs %d bytes, got %d", ErrShortFrame, okKeepFrameLen, len(b))
	}
	if FrameType(b[0]) != FrameOKKeep {
		return o, fmt.Errorf("%w: %v", ErrBadFrameType, FrameType(b[0]))
	}
	o.CreateID = order.Uint16(b[1:])
	o.LogicalQubit = b[3]
	o.Directional = b[4] != 0
	o.SeqNumber = order.Uint16(b[5:])
	o.PurposeID = order.Uint16(b[7:])
	o.RemoteNodeID = order.Uint32(b[9:])
	o.Goodness = unfixed16(order.Uint16(b[13:]))
	o.GoodnessTime = order.Uint32(b[15:])
	o.CreateTime = order.Uint32(b[19:])
	return o, nil
}

// OKMeasureFrame is the OK response for a measure-directly request
// (Figure 38): it carries the measurement outcome and basis instead of a
// qubit location.
type OKMeasureFrame struct {
	CreateID     uint16
	Outcome      uint8 // 0 or 1
	Basis        uint8 // 0=Z, 1=X, 2=Y
	Directional  bool
	SeqNumber    uint16
	PurposeID    uint16
	RemoteNodeID uint32
	Goodness     float64 // QBER estimate for M requests
}

const okMeasureFrameLen = 1 + 2 + 1 + 1 + 1 + 2 + 2 + 4 + 2

// Encode serialises the frame.
func (o OKMeasureFrame) Encode() []byte {
	b := make([]byte, okMeasureFrameLen)
	b[0] = byte(FrameOKMeasure)
	order.PutUint16(b[1:], o.CreateID)
	b[3] = o.Outcome
	b[4] = o.Basis
	if o.Directional {
		b[5] = 1
	}
	order.PutUint16(b[6:], o.SeqNumber)
	order.PutUint16(b[8:], o.PurposeID)
	order.PutUint32(b[10:], o.RemoteNodeID)
	order.PutUint16(b[14:], fixed16(o.Goodness))
	return b
}

// DecodeOKMeasure parses an OK-M frame.
func DecodeOKMeasure(b []byte) (OKMeasureFrame, error) {
	var o OKMeasureFrame
	if len(b) < okMeasureFrameLen {
		return o, fmt.Errorf("%w: OK-M needs %d bytes, got %d", ErrShortFrame, okMeasureFrameLen, len(b))
	}
	if FrameType(b[0]) != FrameOKMeasure {
		return o, fmt.Errorf("%w: %v", ErrBadFrameType, FrameType(b[0]))
	}
	o.CreateID = order.Uint16(b[1:])
	o.Outcome = b[3]
	if o.Outcome > 1 {
		return o, fmt.Errorf("%w: outcome %d", ErrFieldRange, o.Outcome)
	}
	o.Basis = b[4]
	if o.Basis > 2 {
		return o, fmt.Errorf("%w: basis %d", ErrFieldRange, o.Basis)
	}
	o.Directional = b[5] != 0
	o.SeqNumber = order.Uint16(b[6:])
	o.PurposeID = order.Uint16(b[8:])
	o.RemoteNodeID = order.Uint32(b[10:])
	o.Goodness = unfixed16(order.Uint16(b[14:]))
	return o, nil
}

// ExpireFrame revokes OKs already issued when an inconsistency is detected
// (Figure 32).
type ExpireFrame struct {
	QueueID      AbsoluteQueueID
	OriginNodeID uint32
	CreateID     uint16
	ExpectedSeq  uint16 // the sender's up-to-date expected MHP sequence number
}

const expireFrameLen = 1 + 1 + 2 + 4 + 2 + 2

// Encode serialises the frame.
func (e ExpireFrame) Encode() []byte {
	b := make([]byte, expireFrameLen)
	b[0] = byte(FrameExpire)
	b[1] = e.QueueID.QueueID
	order.PutUint16(b[2:], e.QueueID.QueueSeq)
	order.PutUint32(b[4:], e.OriginNodeID)
	order.PutUint16(b[8:], e.CreateID)
	order.PutUint16(b[10:], e.ExpectedSeq)
	return b
}

// DecodeExpire parses an EXPIRE frame.
func DecodeExpire(b []byte) (ExpireFrame, error) {
	var e ExpireFrame
	if len(b) < expireFrameLen {
		return e, fmt.Errorf("%w: EXPIRE needs %d bytes, got %d", ErrShortFrame, expireFrameLen, len(b))
	}
	if FrameType(b[0]) != FrameExpire {
		return e, fmt.Errorf("%w: %v", ErrBadFrameType, FrameType(b[0]))
	}
	e.QueueID.QueueID = b[1]
	e.QueueID.QueueSeq = order.Uint16(b[2:])
	e.OriginNodeID = order.Uint32(b[4:])
	e.CreateID = order.Uint16(b[8:])
	e.ExpectedSeq = order.Uint16(b[10:])
	return e, nil
}

// ExpireAckFrame acknowledges an EXPIRE (Figure 33).
type ExpireAckFrame struct {
	QueueID     AbsoluteQueueID
	ExpectedSeq uint16
}

const expireAckFrameLen = 1 + 1 + 2 + 2

// Encode serialises the frame.
func (e ExpireAckFrame) Encode() []byte {
	b := make([]byte, expireAckFrameLen)
	b[0] = byte(FrameExpireAck)
	b[1] = e.QueueID.QueueID
	order.PutUint16(b[2:], e.QueueID.QueueSeq)
	order.PutUint16(b[4:], e.ExpectedSeq)
	return b
}

// DecodeExpireAck parses an EXPIRE-ACK frame.
func DecodeExpireAck(b []byte) (ExpireAckFrame, error) {
	var e ExpireAckFrame
	if len(b) < expireAckFrameLen {
		return e, fmt.Errorf("%w: EXPIRE-ACK needs %d bytes, got %d", ErrShortFrame, expireAckFrameLen, len(b))
	}
	if FrameType(b[0]) != FrameExpireAck {
		return e, fmt.Errorf("%w: %v", ErrBadFrameType, FrameType(b[0]))
	}
	e.QueueID.QueueID = b[1]
	e.QueueID.QueueSeq = order.Uint16(b[2:])
	e.ExpectedSeq = order.Uint16(b[4:])
	return e, nil
}

// EGPError enumerates the link layer error codes of Section 4.1.2 and
// Appendix E.3.
type EGPError uint8

// EGP error codes.
const (
	ErrNone        EGPError = 0
	ErrUnsupported EGPError = 1 // UNSUPP: fidelity not achievable in time
	ErrTimeout     EGPError = 2 // TIMEOUT: request not fulfilled in time
	ErrRejected    EGPError = 3 // DENIED: remote refused
	ErrOutOfMemory EGPError = 4 // OUTOFMEM: temporarily out of storage
	ErrMemExceeded EGPError = 5 // MEMEXCEEDED: permanently too small
	ErrExpired     EGPError = 6 // EXPIRE: pair no longer available
	ErrNoTime      EGPError = 7 // ERR_NOTIME: queue add timed out
	// Robustness extensions beyond the paper's Figure 39 code set: the fault
	// injection subsystem needs outage-killed work distinguishable from
	// ordinary deadline misses, and the network layer needs a synchronous
	// "no usable path" verdict distinguishable from an infeasible request.
	ErrLinkDown EGPError = 8 // LINKDOWN: link went administratively down
	ErrNoRoute  EGPError = 9 // NOROUTE: no path satisfies the fidelity floor
)

// String names the error code as in the paper.
func (e EGPError) String() string {
	switch e {
	case ErrNone:
		return "OK"
	case ErrUnsupported:
		return "UNSUPP"
	case ErrTimeout:
		return "TIMEOUT"
	case ErrRejected:
		return "DENIED"
	case ErrOutOfMemory:
		return "OUTOFMEM"
	case ErrMemExceeded:
		return "MEMEXCEEDED"
	case ErrExpired:
		return "EXPIRE"
	case ErrNoTime:
		return "ERR_NOTIME"
	case ErrLinkDown:
		return "LINKDOWN"
	case ErrNoRoute:
		return "NOROUTE"
	default:
		return fmt.Sprintf("err(%d)", uint8(e))
	}
}

// ErrFrame is the EGP error message delivered to higher layers (Figure 39).
type ErrFrame struct {
	CreateID     uint16
	Code         EGPError
	SeqRange     bool // true when SeqLow/SeqHigh delimit the expired range
	SeqLow       uint16
	SeqHigh      uint16
	OriginNodeID uint32
}

const errFrameLen = 1 + 2 + 1 + 1 + 2 + 2 + 4

// Encode serialises the frame.
func (e ErrFrame) Encode() []byte {
	b := make([]byte, errFrameLen)
	b[0] = byte(FrameErr)
	order.PutUint16(b[1:], e.CreateID)
	b[3] = byte(e.Code)
	if e.SeqRange {
		b[4] = 1
	}
	order.PutUint16(b[5:], e.SeqLow)
	order.PutUint16(b[7:], e.SeqHigh)
	order.PutUint32(b[9:], e.OriginNodeID)
	return b
}

// DecodeErr parses an ERR frame.
func DecodeErr(b []byte) (ErrFrame, error) {
	var e ErrFrame
	if len(b) < errFrameLen {
		return e, fmt.Errorf("%w: ERR needs %d bytes, got %d", ErrShortFrame, errFrameLen, len(b))
	}
	if FrameType(b[0]) != FrameErr {
		return e, fmt.Errorf("%w: %v", ErrBadFrameType, FrameType(b[0]))
	}
	e.CreateID = order.Uint16(b[1:])
	e.Code = EGPError(b[3])
	e.SeqRange = b[4] != 0
	e.SeqLow = order.Uint16(b[5:])
	e.SeqHigh = order.Uint16(b[7:])
	e.OriginNodeID = order.Uint32(b[9:])
	return e, nil
}

// PollFrame is the EGP's answer to an MHP trigger poll (Figure 35): whether
// to attempt generation this cycle, and with what parameters.
type PollFrame struct {
	Attempt       bool
	QueueID       AbsoluteQueueID
	PulseSequence uint8   // PSEQ: identifies the hardware pulse program (K vs M, storage target)
	Alpha         float64 // bright-state population to use
	MeasureBasis  uint8   // for M requests: 0=Z,1=X,2=Y
}

const pollFrameLen = 1 + 1 + 1 + 2 + 1 + 2 + 1

// Encode serialises the frame.
func (p PollFrame) Encode() []byte {
	b := make([]byte, pollFrameLen)
	b[0] = byte(FramePoll)
	if p.Attempt {
		b[1] = 1
	}
	b[2] = p.QueueID.QueueID
	order.PutUint16(b[3:], p.QueueID.QueueSeq)
	b[5] = p.PulseSequence
	order.PutUint16(b[6:], fixed16(p.Alpha))
	b[8] = p.MeasureBasis
	return b
}

// DecodePoll parses a POLL frame.
func DecodePoll(b []byte) (PollFrame, error) {
	var p PollFrame
	if len(b) < pollFrameLen {
		return p, fmt.Errorf("%w: POLL needs %d bytes, got %d", ErrShortFrame, pollFrameLen, len(b))
	}
	if FrameType(b[0]) != FramePoll {
		return p, fmt.Errorf("%w: %v", ErrBadFrameType, FrameType(b[0]))
	}
	p.Attempt = b[1] != 0
	p.QueueID.QueueID = b[2]
	p.QueueID.QueueSeq = order.Uint16(b[3:])
	p.PulseSequence = b[5]
	p.Alpha = unfixed16(order.Uint16(b[6:]))
	p.MeasureBasis = b[8]
	if p.MeasureBasis > 2 {
		return p, fmt.Errorf("%w: basis %d", ErrFieldRange, p.MeasureBasis)
	}
	return p, nil
}
