package main

import "repro/internal/wire"

// driveWire does the per-attempt frame work of one node: encode a GEN, decode
// it (the midpoint's side), encode the REPLY and decode that.
func driveWire() (nsPerRoundTrip, allocsPerRoundTrip float64) {
	id := wire.AbsoluteQueueID{QueueID: 2, QueueSeq: 511}
	return driveLoop(func() int {
		const n = 4096
		for i := 0; i < n; i++ {
			gen, err := wire.DecodeGEN(wire.GENFrame{QueueID: id, Timestamp: uint64(i)}.Encode())
			if err != nil {
				panic(err)
			}
			reply := wire.REPLYFrame{Outcome: wire.OutcomeStateOne, MHPSeq: uint16(i), QueueID: gen.QueueID, PeerQueue: id}
			if _, err := wire.DecodeREPLY(reply.Encode()); err != nil {
				panic(err)
			}
		}
		return n
	})
}
