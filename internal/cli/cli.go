// Package cli holds the flag and environment plumbing shared by the repo's
// trial-fan-out commands (cmd/netsim, cmd/e2e): engine selection
// (-backend with its $REPRO_BACKEND default, and -shards), observability
// (-trace/-tracecap/-metrics), profiling (-cpuprofile/-memprofile) and the
// artifact writing at exit.
package cli

import (
	"flag"

	"repro/internal/obs"
	"repro/internal/prof"
	"repro/internal/sim"
)

// The shared help texts.
const (
	// BackendHelp documents -backend.
	BackendHelp = "pair-state backend: dense (exact, default) or belldiag (O(1) fast path); $REPRO_BACKEND sets the default"
	// ShardsTablesHelp documents -shards for commands printing tables.
	ShardsTablesHelp = "worker shards of the simulation engine (<=1 serial; tables are identical at any shard count)"
	// TraceHelp documents -trace.
	TraceHelp = "write a Chrome trace-event JSON flight recording of trial 0 to this file (view in ui.perfetto.dev)"
	// TraceCapHelp documents -tracecap.
	TraceCapHelp = "per-ring record capacity of the flight recorder (rounded up to a power of two)"
	// MetricsHelp documents -metrics.
	MetricsHelp = "write a JSON metrics snapshot of trial 0 to this file"
	// CPUProfileHelp documents -cpuprofile.
	CPUProfileHelp = "write a pprof CPU profile of the whole run to this file"
	// MemProfileHelp documents -memprofile.
	MemProfileHelp = "write a pprof heap profile taken at exit to this file"
)

// Config selects which shared flags a command registers. ShardsHelp empty
// means the command has no -shards flag (the network layer is serial-only).
type Config struct {
	ShardsHelp string
}

// Flags holds the registered shared flag values; read them after
// flag.Parse.
type Flags struct {
	// Backend/Shards select the engine; commands pass them into the
	// scenario spec, whose compiler parses and checks them.
	Backend *string
	Shards  *int

	// TraceOut/TraceCap/MetricsOut attach the observability layer.
	TraceOut   *string
	TraceCap   *int
	MetricsOut *string

	// CPUProfile/MemProfile attach the host profiler.
	CPUProfile *string
	MemProfile *string
}

// Register installs the shared flags on fs.
func Register(fs *flag.FlagSet, cfg Config) *Flags {
	f := &Flags{
		Backend:    fs.String("backend", "", BackendHelp),
		TraceOut:   fs.String("trace", "", TraceHelp),
		TraceCap:   fs.Int("tracecap", 1<<16, TraceCapHelp),
		MetricsOut: fs.String("metrics", "", MetricsHelp),
		CPUProfile: fs.String("cpuprofile", "", CPUProfileHelp),
		MemProfile: fs.String("memprofile", "", MemProfileHelp),
	}
	if cfg.ShardsHelp != "" {
		f.Shards = fs.Int("shards", 0, cfg.ShardsHelp)
	} else {
		zero := 0
		f.Shards = &zero
	}
	return f
}

// Observability builds the trial-0 tracer and metrics registry from the
// flags: nil when the corresponding output flag is unset, a tracer sized
// max(1, shards) shard rings of -tracecap records otherwise.
func (f *Flags) Observability() (*obs.Tracer, *obs.Registry) {
	var tracer *obs.Tracer
	var registry *obs.Registry
	if *f.TraceOut != "" {
		shards := *f.Shards
		if shards < 1 {
			shards = 1
		}
		tracer = obs.NewTracer(shards, *f.TraceCap)
	}
	if *f.MetricsOut != "" {
		registry = obs.NewRegistry()
	}
	return tracer, registry
}

// StartCPU starts the CPU profile when -cpuprofile is set; call the
// returned stop function before writing artifacts.
func (f *Flags) StartCPU() (stop func(), err error) {
	return prof.StartCPU(*f.CPUProfile)
}

// WriteArtifacts writes the flight recording, the metrics snapshot (at
// simulated end time end, only when a registry was attached) and the heap
// profile, honouring the corresponding output flags.
func (f *Flags) WriteArtifacts(tracer *obs.Tracer, registry *obs.Registry, end sim.Time) error {
	if err := prof.WriteTrace(*f.TraceOut, tracer); err != nil {
		return err
	}
	if registry != nil {
		if err := prof.WriteMetrics(*f.MetricsOut, registry, end); err != nil {
			return err
		}
	}
	return prof.WriteHeap(*f.MemProfile)
}
