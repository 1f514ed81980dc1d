package wire

import (
	"bytes"
	"errors"
	"testing"
)

// The MHP frames are the only ones the midpoint decodes from a fibre on every
// attempt. Each fuzz target feeds its decoder arbitrary bytes, which must
// decode or be rejected with ErrShortFrame/ErrBadFrameType and never panic; a
// frame that decodes must re-encode to the same bytes. The extra arguments
// build a frame to check Decode(Encode(x)) == x. The seeds run under plain
// `go test`; `go test -fuzz FuzzDecodeGEN` explores further.

func FuzzDecodeGEN(f *testing.F) {
	valid := GENFrame{QueueID: AbsoluteQueueID{QueueID: 3, QueueSeq: 1234}, Timestamp: 987654321}.Encode()
	for _, b := range [][]byte{
		nil,
		{byte(FrameGEN)},
		valid,
		valid[:GENFrameLen-1],
		append(append([]byte(nil), valid...), 0xAA, 0xBB),
		REPLYFrame{Outcome: OutcomeStateOne}.Encode(),
		bytes.Repeat([]byte{0xFF}, GENFrameLen),
	} {
		f.Add(b, uint8(2), uint16(511), uint64(1<<40))
	}
	f.Fuzz(func(t *testing.T, b []byte, qid uint8, qseq uint16, ts uint64) {
		g, err := DecodeGEN(b)
		if err != nil {
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrBadFrameType) {
				t.Fatalf("unexpected error class: %v", err)
			}
		} else {
			var buf [GENFrameLen]byte
			g.Put(&buf)
			if !bytes.Equal(buf[:], b[:GENFrameLen]) {
				t.Fatalf("re-encoding %x gives %x", b[:GENFrameLen], buf)
			}
		}
		in := GENFrame{QueueID: AbsoluteQueueID{QueueID: qid, QueueSeq: qseq}, Timestamp: ts}
		if out, err := DecodeGEN(in.Encode()); err != nil || out != in {
			t.Fatalf("round trip of %+v gives %+v (%v)", in, out, err)
		}
	})
}

func FuzzDecodeREPLY(f *testing.F) {
	valid := REPLYFrame{
		Outcome:   OutcomeStateTwo,
		MHPSeq:    4242,
		QueueID:   AbsoluteQueueID{QueueID: 1, QueueSeq: 77},
		PeerQueue: AbsoluteQueueID{QueueID: 1, QueueSeq: 78},
	}.Encode()
	for _, b := range [][]byte{
		nil,
		{byte(FrameREPLY)},
		valid,
		valid[:REPLYFrameLen-1],
		append(append([]byte(nil), valid...), 0x01),
		GENFrame{Timestamp: 9}.Encode(),
		bytes.Repeat([]byte{0xFF}, REPLYFrameLen),
	} {
		f.Add(b, uint8(ErrNoMessageOther), uint16(9), uint8(2), uint16(511), uint8(2), uint16(512))
	}
	f.Fuzz(func(t *testing.T, b []byte, outcome uint8, seq uint16, q1 uint8, s1 uint16, q2 uint8, s2 uint16) {
		r, err := DecodeREPLY(b)
		if err != nil {
			if !errors.Is(err, ErrShortFrame) && !errors.Is(err, ErrBadFrameType) {
				t.Fatalf("unexpected error class: %v", err)
			}
		} else {
			var buf [REPLYFrameLen]byte
			r.Put(&buf)
			if !bytes.Equal(buf[:], b[:REPLYFrameLen]) {
				t.Fatalf("re-encoding %x gives %x", b[:REPLYFrameLen], buf)
			}
		}
		in := REPLYFrame{
			Outcome:   MHPOutcome(outcome),
			MHPSeq:    seq,
			QueueID:   AbsoluteQueueID{QueueID: q1, QueueSeq: s1},
			PeerQueue: AbsoluteQueueID{QueueID: q2, QueueSeq: s2},
		}
		if out, err := DecodeREPLY(in.Encode()); err != nil || out != in {
			t.Fatalf("round trip of %+v gives %+v (%v)", in, out, err)
		}
	})
}
