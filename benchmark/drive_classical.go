package main

import (
	"repro/internal/classical"
	"repro/internal/sim"
)

// driveClassical sends tagged frames through a lossless channel into a mux
// with one handler: send, delayed delivery on the simulator, demultiplex.
func driveClassical() (nsPerMsg, allocsPerMsg float64) {
	s := sim.New(1)
	mux := classical.NewMux()
	mux.Handle(7, func(classical.Message) {})
	ch := classical.NewChannel("drive", s, 10*sim.Nanosecond, 0, mux.Deliver)
	port := classical.TagPort{Tag: 7, Under: ch}
	payload := any(struct{}{})
	return driveLoop(func() int {
		const n = 1024
		for i := 0; i < n; i++ {
			port.Send(payload)
		}
		_ = s.Run()
		return n
	})
}
