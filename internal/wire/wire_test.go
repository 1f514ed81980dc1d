package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func TestGENRoundTrip(t *testing.T) {
	in := GENFrame{QueueID: AbsoluteQueueID{QueueID: 3, QueueSeq: 1234}, Timestamp: 987654321}
	out, err := DecodeGEN(in.Encode())
	if err != nil {
		t.Fatalf("DecodeGEN: %v", err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestREPLYRoundTrip(t *testing.T) {
	in := REPLYFrame{
		Outcome:   OutcomeStateTwo,
		MHPSeq:    65535,
		QueueID:   AbsoluteQueueID{QueueID: 1, QueueSeq: 42},
		PeerQueue: AbsoluteQueueID{QueueID: 1, QueueSeq: 42},
	}
	out, err := DecodeREPLY(in.Encode())
	if err != nil {
		t.Fatalf("DecodeREPLY: %v", err)
	}
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestREPLYErrorOutcomes(t *testing.T) {
	for _, o := range []MHPOutcome{ErrQueueMismatch, ErrTimeMismatch, ErrNoMessageOther} {
		if !o.IsError() {
			t.Errorf("%v should be an error outcome", o)
		}
		if o.Success() {
			t.Errorf("%v should not be a success", o)
		}
		in := REPLYFrame{Outcome: o, MHPSeq: 7}
		out, err := DecodeREPLY(in.Encode())
		if err != nil || out.Outcome != o {
			t.Errorf("error outcome %v did not round trip: %v %v", o, out.Outcome, err)
		}
	}
	if OutcomeFailure.IsError() || OutcomeStateOne.IsError() {
		t.Fatal("non-error outcomes misclassified")
	}
	if !OutcomeStateOne.Success() || !OutcomeStateTwo.Success() || OutcomeFailure.Success() {
		t.Fatal("success classification wrong")
	}
}

func TestDQPRoundTrip(t *testing.T) {
	in := DQPFrame{
		Kind:             DQPAdd,
		CommSeq:          200,
		QueueID:          AbsoluteQueueID{QueueID: 2, QueueSeq: 300},
		ScheduleCycle:    1 << 40,
		TimeoutCycle:     1<<40 + 100000,
		MinFidelity:      0.64,
		PurposeID:        5123,
		CreateID:         999,
		NumPairs:         255,
		Priority:         3,
		VirtualFinish:    777777,
		EstCyclesPerPair: 123456,
		Flags:            RequestFlags{Store: true, Atomic: true, MasterRequest: true, Consecutive: true},
	}
	out, err := DecodeDQP(in.Encode())
	if err != nil {
		t.Fatalf("DecodeDQP: %v", err)
	}
	if math.Abs(out.MinFidelity-in.MinFidelity) > 1e-4 {
		t.Fatalf("fidelity fixed-point error too large: %v vs %v", out.MinFidelity, in.MinFidelity)
	}
	out.MinFidelity = in.MinFidelity
	if out != in {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", out, in)
	}
}

func TestDQPKindsAndTypes(t *testing.T) {
	for _, kind := range []DQPFrameKind{DQPAdd, DQPAck, DQPRej} {
		in := DQPFrame{Kind: kind, CommSeq: 1}
		enc := in.Encode()
		ft, err := PeekType(enc)
		if err != nil {
			t.Fatalf("PeekType: %v", err)
		}
		want := map[DQPFrameKind]FrameType{DQPAdd: FrameDQPAdd, DQPAck: FrameDQPAck, DQPRej: FrameDQPRej}[kind]
		if ft != want {
			t.Errorf("kind %d encodes as %v, want %v", kind, ft, want)
		}
		out, err := DecodeDQP(enc)
		if err != nil || out.Kind != kind {
			t.Errorf("kind %d did not round trip: %v %v", kind, out.Kind, err)
		}
	}
	// Mismatched kind/type must be rejected.
	bad := DQPFrame{Kind: DQPAck}.Encode()
	bad[1] = byte(DQPRej)
	if _, err := DecodeDQP(bad); err == nil {
		t.Fatal("mismatched kind/frame-type should fail")
	}
}

func TestCreateRoundTrip(t *testing.T) {
	in := CreateFrame{
		RemoteNodeID: 0xDEADBEEF,
		MinFidelity:  0.75,
		MaxTimeMicro: 14_000_000,
		PurposeID:    443,
		NumPairs:     3,
		Priority:     2,
		TypeKeep:     true,
		Atomic:       false,
		Consecutive:  true,
	}
	out, err := DecodeCreate(in.Encode())
	if err != nil {
		t.Fatalf("DecodeCreate: %v", err)
	}
	if math.Abs(out.MinFidelity-in.MinFidelity) > 1e-4 {
		t.Fatalf("fidelity error: %v", out.MinFidelity)
	}
	out.MinFidelity = in.MinFidelity
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestOKKeepRoundTrip(t *testing.T) {
	in := OKKeepFrame{
		CreateID:     12,
		LogicalQubit: 1,
		Directional:  true,
		SeqNumber:    888,
		PurposeID:    10,
		RemoteNodeID: 7,
		Goodness:     0.71,
		GoodnessTime: 123456,
		CreateTime:   123400,
	}
	out, err := DecodeOKKeep(in.Encode())
	if err != nil {
		t.Fatalf("DecodeOKKeep: %v", err)
	}
	if math.Abs(out.Goodness-in.Goodness) > 1e-4 {
		t.Fatalf("goodness error: %v", out.Goodness)
	}
	out.Goodness = in.Goodness
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestOKMeasureRoundTrip(t *testing.T) {
	in := OKMeasureFrame{
		CreateID:     1,
		Outcome:      1,
		Basis:        2,
		Directional:  false,
		SeqNumber:    3,
		PurposeID:    4,
		RemoteNodeID: 5,
		Goodness:     0.03,
	}
	out, err := DecodeOKMeasure(in.Encode())
	if err != nil {
		t.Fatalf("DecodeOKMeasure: %v", err)
	}
	if math.Abs(out.Goodness-in.Goodness) > 1e-4 {
		t.Fatalf("goodness error: %v", out.Goodness)
	}
	out.Goodness = in.Goodness
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestOKMeasureValidation(t *testing.T) {
	bad := OKMeasureFrame{Outcome: 1, Basis: 2}
	enc := bad.Encode()
	enc[3] = 7 // invalid outcome
	if _, err := DecodeOKMeasure(enc); !errors.Is(err, ErrFieldRange) {
		t.Fatalf("expected field range error, got %v", err)
	}
	enc = bad.Encode()
	enc[4] = 9 // invalid basis
	if _, err := DecodeOKMeasure(enc); !errors.Is(err, ErrFieldRange) {
		t.Fatalf("expected field range error, got %v", err)
	}
}

func TestExpireRoundTrip(t *testing.T) {
	in := ExpireFrame{
		QueueID:      AbsoluteQueueID{QueueID: 0, QueueSeq: 17},
		OriginNodeID: 42,
		CreateID:     9,
		ExpectedSeq:  100,
	}
	out, err := DecodeExpire(in.Encode())
	if err != nil || out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v (%v)", out, in, err)
	}
	ack := ExpireAckFrame{QueueID: in.QueueID, ExpectedSeq: 100}
	ackOut, err := DecodeExpireAck(ack.Encode())
	if err != nil || ackOut != ack {
		t.Fatalf("ack round trip mismatch: %+v vs %+v (%v)", ackOut, ack, err)
	}
}

func TestErrFrameRoundTrip(t *testing.T) {
	in := ErrFrame{
		CreateID:     55,
		Code:         ErrTimeout,
		SeqRange:     true,
		SeqLow:       10,
		SeqHigh:      20,
		OriginNodeID: 1,
	}
	out, err := DecodeErr(in.Encode())
	if err != nil || out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v (%v)", out, in, err)
	}
}

func TestPollRoundTrip(t *testing.T) {
	in := PollFrame{
		Attempt:       true,
		QueueID:       AbsoluteQueueID{QueueID: 1, QueueSeq: 2},
		PulseSequence: 3,
		Alpha:         0.1,
		MeasureBasis:  1,
	}
	out, err := DecodePoll(in.Encode())
	if err != nil {
		t.Fatalf("DecodePoll: %v", err)
	}
	if math.Abs(out.Alpha-in.Alpha) > 1e-4 {
		t.Fatalf("alpha error: %v", out.Alpha)
	}
	out.Alpha = in.Alpha
	if out != in {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
}

func TestShortFramesRejected(t *testing.T) {
	funcs := map[string]func([]byte) error{
		"GEN":     func(b []byte) error { _, err := DecodeGEN(b); return err },
		"REPLY":   func(b []byte) error { _, err := DecodeREPLY(b); return err },
		"DQP":     func(b []byte) error { _, err := DecodeDQP(b); return err },
		"CREATE":  func(b []byte) error { _, err := DecodeCreate(b); return err },
		"OK-K":    func(b []byte) error { _, err := DecodeOKKeep(b); return err },
		"OK-M":    func(b []byte) error { _, err := DecodeOKMeasure(b); return err },
		"EXPIRE":  func(b []byte) error { _, err := DecodeExpire(b); return err },
		"EXP-ACK": func(b []byte) error { _, err := DecodeExpireAck(b); return err },
		"ERR":     func(b []byte) error { _, err := DecodeErr(b); return err },
		"POLL":    func(b []byte) error { _, err := DecodePoll(b); return err },
	}
	for name, decode := range funcs {
		if err := decode([]byte{0x01}); !errors.Is(err, ErrShortFrame) {
			t.Errorf("%s: expected ErrShortFrame for truncated input, got %v", name, err)
		}
		if err := decode(nil); !errors.Is(err, ErrShortFrame) {
			t.Errorf("%s: expected ErrShortFrame for nil input, got %v", name, err)
		}
	}
}

func TestWrongFrameTypeRejected(t *testing.T) {
	gen := GENFrame{}.Encode()
	if _, err := DecodeREPLY(append(gen, make([]byte, 16)...)); !errors.Is(err, ErrBadFrameType) {
		t.Fatalf("expected ErrBadFrameType, got %v", err)
	}
	reply := REPLYFrame{}.Encode()
	if _, err := DecodeGEN(append(reply, make([]byte, 16)...)); !errors.Is(err, ErrBadFrameType) {
		t.Fatalf("expected ErrBadFrameType, got %v", err)
	}
}

func TestPeekType(t *testing.T) {
	if _, err := PeekType(nil); !errors.Is(err, ErrShortFrame) {
		t.Fatal("PeekType on empty input should fail")
	}
	frames := map[FrameType][]byte{
		FrameGEN:       GENFrame{}.Encode(),
		FrameREPLY:     REPLYFrame{}.Encode(),
		FrameCreate:    CreateFrame{}.Encode(),
		FrameOKKeep:    OKKeepFrame{}.Encode(),
		FrameOKMeasure: OKMeasureFrame{}.Encode(),
		FrameExpire:    ExpireFrame{}.Encode(),
		FrameExpireAck: ExpireAckFrame{}.Encode(),
		FrameErr:       ErrFrame{}.Encode(),
		FramePoll:      PollFrame{}.Encode(),
		FrameDQPAdd:    DQPFrame{Kind: DQPAdd}.Encode(),
		FrameDQPAck:    DQPFrame{Kind: DQPAck}.Encode(),
		FrameDQPRej:    DQPFrame{Kind: DQPRej}.Encode(),
	}
	for want, enc := range frames {
		got, err := PeekType(enc)
		if err != nil || got != want {
			t.Errorf("PeekType = %v (%v), want %v", got, err, want)
		}
	}
}

// TestFrameTypeCodes pins every frame type's code: the first byte on the wire.
func TestFrameTypeCodes(t *testing.T) {
	codes := map[FrameType]uint8{
		FrameGEN: 1, FrameREPLY: 2, FrameDQPAdd: 3, FrameDQPAck: 4, FrameDQPRej: 5,
		FrameCreate: 6, FrameOKKeep: 7, FrameOKMeasure: 8, FrameExpire: 9,
		FrameExpireAck: 10, FrameErr: 13, FramePoll: 14,
	}
	for ft, want := range codes {
		if uint8(ft) != want {
			t.Errorf("%v has code %d, want %d", ft, uint8(ft), want)
		}
	}
}

func TestFrameTypeStrings(t *testing.T) {
	names := map[FrameType]string{
		FrameGEN: "GEN", FrameREPLY: "REPLY", FrameDQPAdd: "DQP-ADD", FrameDQPAck: "DQP-ACK",
		FrameDQPRej: "DQP-REJ", FrameCreate: "CREATE", FrameOKKeep: "OK-K", FrameOKMeasure: "OK-M",
		FrameExpire: "EXPIRE", FrameExpireAck: "EXPIRE-ACK", FrameErr: "ERR", FramePoll: "POLL",
	}
	for ft, want := range names {
		if ft.String() != want {
			t.Errorf("FrameType(%d).String() = %q, want %q", ft, ft.String(), want)
		}
	}
	if FrameType(200).String() == "" {
		t.Fatal("unknown frame type should still render")
	}
}

func TestEGPErrorStrings(t *testing.T) {
	names := map[EGPError]string{
		ErrNone: "OK", ErrUnsupported: "UNSUPP", ErrTimeout: "TIMEOUT", ErrRejected: "DENIED",
		ErrOutOfMemory: "OUTOFMEM", ErrMemExceeded: "MEMEXCEEDED", ErrExpired: "EXPIRE", ErrNoTime: "ERR_NOTIME",
	}
	for code, want := range names {
		if code.String() != want {
			t.Errorf("EGPError(%d).String() = %q, want %q", code, code.String(), want)
		}
	}
}

func TestFixedPointPrecision(t *testing.T) {
	for _, v := range []float64{0, 0.25, 0.5, 0.64, 0.75, 0.999, 1} {
		if got := unfixed16(fixed16(v)); math.Abs(got-v) > 1e-4 {
			t.Errorf("fixed point error for %v: %v", v, got)
		}
	}
	if fixed16(-1) != 0 || fixed16(2) != 65535 {
		t.Fatal("fixed point should clamp")
	}
}

func TestAbsoluteQueueIDString(t *testing.T) {
	if (AbsoluteQueueID{QueueID: 2, QueueSeq: 7}).String() != "(2,7)" {
		t.Fatal("queue ID formatting wrong")
	}
}

func TestMHPOutcomeStrings(t *testing.T) {
	for o, want := range map[MHPOutcome]string{
		OutcomeFailure: "failure", OutcomeStateOne: "psi+", OutcomeStateTwo: "psi-",
		ErrQueueMismatch: "QUEUE_MISMATCH", ErrTimeMismatch: "TIME_MISMATCH",
		ErrNoMessageOther: "NO_MESSAGE_OTHER", ErrGeneralFailure: "GEN_FAIL",
	} {
		if o.String() != want {
			t.Errorf("outcome %d renders %q, want %q", o, o.String(), want)
		}
	}
}

// Property: all frames survive an encode/decode round trip.
func TestPropertyGENRoundTrip(t *testing.T) {
	f := func(qid uint8, qseq uint16, ts uint64) bool {
		in := GENFrame{QueueID: AbsoluteQueueID{QueueID: qid, QueueSeq: qseq}, Timestamp: ts}
		out, err := DecodeGEN(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDQPRoundTrip(t *testing.T) {
	f := func(cseq uint8, qid uint8, qseq uint16, sched, timeout uint64, purpose, create, pairs uint16, prio uint8, vf uint64, est uint32, flags uint8) bool {
		in := DQPFrame{
			Kind:             DQPAdd,
			CommSeq:          cseq,
			QueueID:          AbsoluteQueueID{QueueID: qid, QueueSeq: qseq},
			ScheduleCycle:    sched,
			TimeoutCycle:     timeout,
			MinFidelity:      float64(purpose%100) / 100,
			PurposeID:        purpose,
			CreateID:         create,
			NumPairs:         pairs,
			Priority:         prio,
			VirtualFinish:    vf,
			EstCyclesPerPair: est,
			Flags:            unpackFlags(flags),
		}
		out, err := DecodeDQP(in.Encode())
		if err != nil {
			return false
		}
		if math.Abs(out.MinFidelity-in.MinFidelity) > 1e-4 {
			return false
		}
		out.MinFidelity = in.MinFidelity
		return out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyREPLYRoundTrip(t *testing.T) {
	f := func(outcome uint8, seq uint16, q1 uint8, s1 uint16, q2 uint8, s2 uint16) bool {
		in := REPLYFrame{
			Outcome:   MHPOutcome(outcome),
			MHPSeq:    seq,
			QueueID:   AbsoluteQueueID{QueueID: q1, QueueSeq: s1},
			PeerQueue: AbsoluteQueueID{QueueID: q2, QueueSeq: s2},
		}
		out, err := DecodeREPLY(in.Encode())
		return err == nil && out == in
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodingsAreFixedLength(t *testing.T) {
	// Frames of the same type must always have the same length, so the
	// midpoint and nodes can parse them without framing metadata.
	f := func(a uint16, b uint32, c uint8) bool {
		l1 := len(GENFrame{Timestamp: uint64(b)}.Encode())
		l2 := len(GENFrame{QueueID: AbsoluteQueueID{QueueID: c, QueueSeq: a}}.Encode())
		l3 := len(OKKeepFrame{CreateID: a, RemoteNodeID: b}.Encode())
		l4 := len(OKKeepFrame{SeqNumber: a}.Encode())
		return l1 == l2 && l3 == l4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEncodingsDiffer(t *testing.T) {
	// Different payloads must produce different encodings (basic sanity that
	// all fields are actually serialised).
	a := DQPFrame{Kind: DQPAdd, CreateID: 1, NumPairs: 2, PurposeID: 3}.Encode()
	b := DQPFrame{Kind: DQPAdd, CreateID: 1, NumPairs: 3, PurposeID: 3}.Encode()
	if bytes.Equal(a, b) {
		t.Fatal("different NumPairs should change encoding")
	}
	c := CreateFrame{PurposeID: 1}.Encode()
	d := CreateFrame{PurposeID: 2}.Encode()
	if bytes.Equal(c, d) {
		t.Fatal("different PurposeID should change encoding")
	}
}
