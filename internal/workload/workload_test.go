package workload

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/egp"
	"repro/internal/nv"
	"repro/internal/photonics"
)

func TestLoadNames(t *testing.T) {
	if LoadLow.String() != "Low" || LoadHigh.String() != "High" || LoadUltra.String() != "Ultra" {
		t.Fatal("load level names wrong")
	}
	if LoadLevel(0.42).String() != "f=0.42" {
		t.Fatal("custom load should render its fraction")
	}
}

func TestOriginString(t *testing.T) {
	if OriginA.String() != "A" || OriginB.String() != "B" || OriginRandom.String() != "random" {
		t.Fatal("origin names wrong")
	}
}

func TestSingleKindClasses(t *testing.T) {
	classes := SingleKind(egp.PriorityNL, LoadHigh, 3)
	if len(classes) != 3 {
		t.Fatalf("expected one class per size 1..3, got %d", len(classes))
	}
	for i, c := range classes {
		if c.Priority != egp.PriorityNL || c.Arrival.Kind != ArrivalPoisson || c.Arrival.Load != 0.99/3 ||
			c.FixedPairs != i+1 || c.MinFidelity != 0.64 || c.Origin != OriginRandom || c.Deadline != 0 {
			t.Fatalf("class %d fields wrong: %+v", i, c)
		}
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if !classes[0].Keep() {
		t.Fatal("NL requests are create-and-keep")
	}
	if SingleKind(egp.PriorityMD, LoadLow, 1)[0].Keep() {
		t.Fatal("MD requests are measure-directly")
	}
}

// loads sums the classes' load fractions per priority, and sizes takes the
// largest pair count per priority.
func loads(classes []ClassSpec) (load map[int]float64, sizes map[int]int) {
	load, sizes = map[int]float64{}, map[int]int{}
	for _, c := range classes {
		load[c.Priority] += c.Arrival.Load
		sizes[c.Priority] = max(sizes[c.Priority], c.FixedPairs)
	}
	return load, sizes
}

func TestMixedPatternsMatchTable2(t *testing.T) {
	for _, p := range AllPatterns() {
		load, _ := loads(Mixed(p))
		total := load[egp.PriorityNL] + load[egp.PriorityCK] + load[egp.PriorityMD]
		if total > 1.0 || total < 0.9 {
			t.Errorf("%s: total load fraction %v out of range", p, total)
		}
	}
	// Spot-check specific Table 2 entries.
	load, sizes := loads(Mixed(PatternMoreNL))
	if math.Abs(load[egp.PriorityNL]-0.99*4/6) > 1e-12 || sizes[egp.PriorityNL] != 3 {
		t.Fatalf("MoreNL NL use case wrong: load %v, up to %d pairs", load[egp.PriorityNL], sizes[egp.PriorityNL])
	}
	if sizes[egp.PriorityMD] != 256 {
		t.Fatal("MoreNL MD use case should allow up to 256 pairs")
	}
	load, _ = loads(Mixed(PatternNoNLMoreMD))
	if _, ok := load[egp.PriorityNL]; ok {
		t.Fatal("NoNLMoreMD should have no NL class")
	}
	if math.Abs(load[egp.PriorityMD]-0.99*4/5) > 1e-12 {
		t.Fatal("NoNLMoreMD MD load wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("unknown pattern should panic")
		}
	}()
	Mixed(Pattern("bogus"))
}

func TestTable1Patterns(t *testing.T) {
	uniform := Table1Pattern(true)
	if len(uniform) != 3 {
		t.Fatal("uniform pattern should have 3 classes")
	}
	if uniform[0].FixedPairs != 2 || uniform[2].FixedPairs != 10 {
		t.Fatal("Table 1 pair counts wrong (2/2/10)")
	}
	noNL := Table1Pattern(false)
	if len(noNL) != 2 {
		t.Fatal("pattern (ii) should have only CK and MD classes")
	}
	if noNL[1].Arrival.Load != 0.99*4/5 {
		t.Fatal("pattern (ii) MD load wrong")
	}
}

// paperUseCase is one use case as the paper states it: a priority at load
// fraction f, requesting k pairs with probability f·psucc/(E·k) per cycle
// for k uniform in [1, kmax], or a fixed k.
type paperUseCase struct {
	priority int
	load     float64
	kmax     int
	fixed    int
}

// table2 lists Appendix Table 2's NL, CK and MD use cases of a pattern.
func table2(p Pattern) []paperUseCase {
	const f = 0.99
	mk := func(fNL, fCK, fMD float64, kNL, kCK, kMD int) []paperUseCase {
		return []paperUseCase{
			{priority: egp.PriorityNL, load: fNL, kmax: kNL},
			{priority: egp.PriorityCK, load: fCK, kmax: kCK},
			{priority: egp.PriorityMD, load: fMD, kmax: kMD},
		}
	}
	switch p {
	case PatternUniform:
		return mk(f/3, f/3, f/3, 1, 1, 1)
	case PatternMoreNL:
		return mk(f*4/6, f/6, f/6, 3, 3, 256)
	case PatternMoreCK:
		return mk(f/6, f*4/6, f/6, 3, 3, 256)
	case PatternMoreMD:
		return mk(f/6, f/6, f*4/6, 3, 3, 256)
	case PatternNoNLMoreCK:
		return mk(0, f*4/5, f/5, 3, 3, 256)
	default:
		return mk(0, f/5, f*4/5, 3, 3, 256)
	}
}

// TestRunnerClassesKeepThePaperSizeLaw checks that the classes of
// SingleKind, Mixed and Table1Pattern offer, per priority and request size
// k, the paper's per-cycle acceptance rate over the cycle time T:
// f·psucc/(E·T·k·kmax) for k in [1, kmax], f·psucc/(E·T·k) for a fixed k.
// A class's rate is taken as a link site takes it (RatePerSecond at the
// class's mean size) and spread evenly over its size range.
func TestRunnerClassesKeepThePaperSizeLaw(t *testing.T) {
	type workloadCase struct {
		name    string
		classes []ClassSpec
		paper   []paperUseCase
	}
	var cases []workloadCase
	for _, priority := range []int{egp.PriorityNL, egp.PriorityCK, egp.PriorityMD} {
		for _, kmax := range []int{1, 3} {
			cases = append(cases, workloadCase{
				name:    fmt.Sprintf("SingleKind(%s,High,%d)", egp.PriorityName(priority), kmax),
				classes: SingleKind(priority, LoadHigh, kmax),
				paper:   []paperUseCase{{priority: priority, load: 0.99, kmax: kmax}},
			})
		}
	}
	for _, p := range AllPatterns() {
		cases = append(cases, workloadCase{name: "Mixed(" + string(p) + ")", classes: Mixed(p), paper: table2(p)})
	}
	cases = append(cases,
		workloadCase{name: "Table1Pattern(true)", classes: Table1Pattern(true), paper: []paperUseCase{
			{priority: egp.PriorityNL, load: 0.99 / 3, fixed: 2},
			{priority: egp.PriorityCK, load: 0.99 / 3, fixed: 2},
			{priority: egp.PriorityMD, load: 0.99 / 3, fixed: 10},
		}},
		workloadCase{name: "Table1Pattern(false)", classes: Table1Pattern(false), paper: []paperUseCase{
			{priority: egp.PriorityCK, load: 0.99 / 5, fixed: 2},
			{priority: egp.PriorityMD, load: 0.99 * 4 / 5, fixed: 10},
		}},
	)

	type size struct{ priority, pairs int }
	for _, sc := range []nv.ScenarioID{nv.ScenarioLab, nv.ScenarioQL2020} {
		platform := nv.NewPlatform(sc)
		feu := egp.NewFEU(platform, photonics.NewLinkSampler(platform.Optics))
		alpha, ok := feu.AlphaForFidelity(0.64)
		if !ok {
			t.Fatalf("%s: Fmin 0.64 infeasible", sc)
		}
		psucc := feu.SuccessProbability(alpha)
		cycle := platform.CycleTime[nv.RequestMeasure].Seconds()
		for _, tc := range cases {
			got := map[size]float64{}
			for _, c := range tc.classes {
				rate := RatePerSecond(feu, platform, c.Keep(), c.Arrival.Load, c.MinFidelity, c.MeanPairs())
				if c.FixedPairs > 0 {
					got[size{c.Priority, c.FixedPairs}] += rate
					continue
				}
				for k := c.MinPairs; k <= c.MaxPairs; k++ {
					got[size{c.Priority, k}] += rate / float64(c.MaxPairs-c.MinPairs+1)
				}
			}
			want := map[size]float64{}
			for _, u := range tc.paper {
				if u.load == 0 {
					continue
				}
				rt := nv.RequestMeasure
				if u.priority != egp.PriorityMD {
					rt = nv.RequestKeep
				}
				perCycle := u.load * psucc / max(platform.ExpectedCyclesPerAttempt[rt], 1)
				if u.fixed > 0 {
					want[size{u.priority, u.fixed}] += perCycle / (cycle * float64(u.fixed))
					continue
				}
				for k := 1; k <= u.kmax; k++ {
					want[size{u.priority, k}] += perCycle / (cycle * float64(k*u.kmax))
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s %s: %d request sizes offered, the paper's rule has %d", sc, tc.name, len(got), len(want))
				continue
			}
			for s, w := range want {
				if g := got[s]; math.Abs(g-w) > 1e-12*w {
					t.Errorf("%s %s: %s k=%d at %g/s, the paper's rule gives %g/s", sc, tc.name, egp.PriorityName(s.priority), s.pairs, g, w)
				}
			}
		}
	}
}
