package main

import (
	"runtime"
	"time"
)

// A layer drive calls one layer's public function in a tight loop on inputs
// taken from a built network, so a layer's own cost can be read apart from
// the run it is part of. Drives are short (driveBudget each) and feed
// per-layer metrics only.
const driveBudget = 250 * time.Millisecond

// driveLoop runs batch after batch of op until the budget is spent (at least
// two batches, the first discarded as warm-up) and returns host ns and heap
// allocations per op. ops reports how many operations one batch did.
func driveLoop(batch func() (ops int)) (nsPerOp, allocsPerOp float64) {
	batch()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	total := 0
	for total == 0 || time.Since(start) < driveBudget {
		total += batch()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&m1)
	return ratio(float64(elapsed.Nanoseconds()), float64(total)), ratio(float64(m1.Mallocs-m0.Mallocs), float64(total))
}

// driveNetwork builds a workload's network without running it, as the source
// of inputs for a drive.
func driveNetwork(name string) *built {
	w, err := workloadByName(name)
	if err != nil {
		panic(err)
	}
	b, _, err := build(w.spec(), w.Name, 1, buildOptions{endToEnd: w.endToEnd()}, nil)
	if err != nil {
		// The same build has already run in this process.
		panic(err)
	}
	return b
}

// layerDrives runs every drive and returns their per-layer metrics.
func layerDrives() map[string]float64 {
	out := map[string]float64{}
	out["sim.drive_ns_per_event_d16"], out["sim.drive_allocs_per_event"] = driveSim(16)
	out["sim.drive_ns_per_event_d4096"], _ = driveSim(4096)
	out["photonics.drive_ns_per_sample"], out["photonics.drive_allocs_per_sample"] = drivePhotonics()
	out["classical.drive_ns_per_msg"], _ = driveClassical()
	out["wire.drive_ns_per_gen_reply"], out["wire.drive_allocs_per_gen_reply"] = driveWire()
	out["quantum.drive_ns_per_swap_dense"], out["quantum.drive_ns_per_swap_belldiag"] = driveQuantum()
	out["network.drive_ns_per_route"] = driveNetworkRoute()
	return out
}
