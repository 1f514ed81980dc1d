package main

import "repro/internal/network"

// driveNetworkRoute recomputes the corner-to-corner route of the 3x3 grid
// after a cache invalidation: what every admin-state transition costs the
// router before in-flight requests re-path.
func driveNetworkRoute() (nsPerRoute float64) {
	router := network.NewRouter(driveNetwork("e2e-grid9").nw, nil)
	nsPerRoute, _ = driveLoop(func() int {
		const n = 256
		for i := 0; i < n; i++ {
			router.Invalidate()
			if _, err := router.Path(0, 8); err != nil {
				panic(err)
			}
		}
		return n
	})
	return nsPerRoute
}
