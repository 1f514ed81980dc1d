package main

import "repro/internal/sim"

// driveSim keeps depth self-rescheduling no-op events pending on a fresh
// serial simulator and returns the cost of scheduling plus dispatching one.
// The delays differ per event, so the queue reorders on every pop.
func driveSim(depth int) (nsPerEvent, allocsPerEvent float64) {
	s := sim.New(1)
	delays := make([]sim.Duration, depth)
	var fire sim.ArgHandler
	fire = func(now sim.Time, arg any) {
		s.ScheduleArgAt(now.Add(*arg.(*sim.Duration)), fire, arg)
	}
	for i := range delays {
		delays[i] = sim.Microsecond + sim.Duration(i*7919%997)
		s.ScheduleArgAt(sim.Time(delays[i]), fire, &delays[i])
	}
	return driveLoop(func() int {
		before := s.Executed()
		_ = s.RunFor(100 * sim.Microsecond)
		return int(s.Executed() - before)
	})
}
