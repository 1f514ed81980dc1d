package main

import (
	"math"
	"testing"
)

// cannedShow is `go tool pprof -top -sample_index=samples -show=^repro/internal/`
// output, trimmed.
const cannedShow = `File: benchmark
Type: samples
Time: 2026-09-29 07:06:10 UTC
Duration: 9.76s, Total samples = 1000 
Active filters:
   show=^repro/internal/
Showing nodes accounting for 800, 80.00% of 1000 total
      flat  flat%   sum%        cum   cum%
       300 30.00% 30.00%        500 50.00%  repro/internal/sim.(*heapQueue).pop
       100 10.00% 40.00%        100 10.00%  repro/internal/sim.(*Simulator).newEvent (inline)
       200 20.00% 60.00%        400 40.00%  repro/internal/mhp.(*Node).runCycle
       120 12.00% 72.00%        196 19.60%  repro/internal/netsim.(*Network).buildLink.func1
        40  4.00% 76.00%         40  4.00%  repro/internal/quantum.NewMatrix (inline)
        40  4.00% 80.00%         40  4.00%  repro/internal/prof.Start
`

const cannedAll = `File: benchmark
Type: samples
Showing nodes accounting for 1000, 100% of 1000 total
      flat  flat%   sum%        cum   cum%
       250 25.00% 25.00%        300 30.00%  runtime.mallocgc
       150 15.00% 40.00%        150 15.00%  runtime.memmove
        50  5.00% 45.00%         50  5.00%  internal/runtime/maps.(*Map).getWithKeySmall
       300 30.00% 75.00%        500 50.00%  repro/internal/sim.(*heapQueue).pop
       250 25.00%   100%        250 25.00%  container/heap.down
`

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestCPUProfileSplitsByPackage(t *testing.T) {
	shown, total, rows, err := parseTop(cannedShow)
	if err != nil {
		t.Fatal(err)
	}
	if shown != 800 || total != 1000 || len(rows) != 6 {
		t.Fatalf("parsed shown %g total %g rows %d, want 800 1000 6", shown, total, len(rows))
	}
	if rows[1].name != "repro/internal/sim.(*Simulator).newEvent" {
		t.Errorf("inline marker kept in %q", rows[1].name)
	}
	layers := map[string]bool{"sim": true, "mhp": true, "netsim": true, "quantum": true}
	s := splitByLayer(shown, total, rows, layers)
	want := map[string]float64{"sim": 0.5, "mhp": 0.25, "netsim": 0.15, "quantum": 0.05}
	sum := s.other
	for l, w := range want {
		if !near(s.layer[l], w) {
			t.Errorf("%s share = %g, want %g", l, s.layer[l], w)
		}
		sum += s.layer[l]
	}
	if !near(s.other, 0.05) {
		t.Errorf("share of unlisted repo packages = %g, want 0.05", s.other)
	}
	if !near(sum, 1) {
		t.Errorf("shares sum to %g", sum)
	}
	if !near(s.background, 0.2) {
		t.Errorf("background share = %g, want 0.2", s.background)
	}

	_, total, rows, err = parseTop(cannedAll)
	if err != nil {
		t.Fatal(err)
	}
	if got := runtimeLeafShare(total, rows); !near(got, 0.45) {
		t.Errorf("runtime leaf share = %g, want 0.45", got)
	}
	if _, _, _, err := parseTop("pprof: no such file"); err == nil {
		t.Error("output without a table parsed")
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/sim.(*heapQueue).pop":        "sim",
		"repro/internal/netsim.(*Network).Run.func1": "netsim",
		"repro/internal/quantum.NewMatrix":           "quantum",
		"runtime.mallocgc":                           "",
		"main.(*built).onLinkOK":                     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
