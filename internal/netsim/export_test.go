package netsim

// NewNetworkPerNodeClocks builds the network with every MHP node on a clock
// of its own that never parks it: one tick per node per cycle, the
// trajectory the shared parking clock must reproduce.
func NewNetworkPerNodeClocks(cfg Config) (*Network, error) { return newNetwork(cfg, true) }

// Polls returns how many node polls the network's MHP clocks have made.
func (nw *Network) Polls() uint64 {
	var n uint64
	for _, c := range nw.clocks {
		n += c.Polls()
	}
	return n
}
