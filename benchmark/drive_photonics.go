package main

// drivePhotonics samples entanglement attempts on a built link at the
// bright-state population its FEU picks for the default fidelity floor 0.64:
// the per-attempt optical model behind every workload.
func drivePhotonics() (nsPerSample, allocsPerSample float64) {
	l := driveNetwork("link-sat").nw.Links[0]
	alpha, ok := l.EGPA.FEU().AlphaForFidelity(0.64)
	if !ok {
		panic("drive: fidelity 0.64 infeasible on the link-sat hardware")
	}
	rng := l.Eng.RNG()
	return driveLoop(func() int {
		const n = 4096
		for i := 0; i < n; i++ {
			l.Sampler.Sample(alpha, alpha, rng)
		}
		return n
	})
}
