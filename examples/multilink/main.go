// Example multilink builds a small star network on the netsim layer — three
// leaves attached to a centre node, each over its own heralded link — drives
// it with Poisson measure-directly traffic, and prints what each link
// delivered plus how the centre node's link registry demultiplexed the
// classical protocol traffic.
package main

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/nv"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	cfg := netsim.DefaultConfig(netsim.Star(4), nv.ScenarioLab)
	cfg.Seed = 42
	nw, err := netsim.NewNetwork(cfg)
	if err != nil {
		panic(err)
	}
	if _, err := nw.AttachWorkload([]workload.ClassSpec{workload.PoissonClass(0.9, 2, 0.64, false)}); err != nil {
		panic(err)
	}

	fmt.Printf("running %s for 1 simulated second...\n\n", nw.Describe())
	nw.Run(sim.DurationSeconds(1))

	perLink, agg := nw.Stats()
	for _, ls := range perLink {
		fmt.Printf("link %-6s  %3d pairs  %6.2f pairs/s  fidelity %.3f  p50 latency %.1f ms\n",
			ls.Link, ls.Pairs, ls.OKRate, ls.Fidelity, ls.LatencyP50*1e3)
	}
	fmt.Printf("\naggregate   %3d pairs  %6.2f pairs/s  fidelity %.3f\n", agg.Pairs, agg.OKRate, agg.Fidelity)

	centre := nw.Nodes[0]
	routed, dropped := centre.Mux.Stats()
	fmt.Printf("\ncentre node %s terminates %d links; its registry routed %d frames (%d dropped)\n",
		centre.Name, centre.Degree(), routed, dropped)
}
