package workload

import (
	"testing"

	"repro/internal/egp"
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
	if len(classes) != 1 {
		t.Fatalf("expected one class, got %d", len(classes))
	}
	c := classes[0]
	if c.Priority != egp.PriorityNL || c.Fraction != 0.99 || c.MaxPairs != 3 || c.MinFidelity != 0.64 {
		t.Fatalf("class fields wrong: %+v", c)
	}
	if !c.Keep() {
		t.Fatal("NL requests are create-and-keep")
	}
	if SingleKind(egp.PriorityMD, LoadLow, 1)[0].Keep() {
		t.Fatal("MD requests are measure-directly")
	}
}

func TestMixedPatternsMatchTable2(t *testing.T) {
	for _, p := range AllPatterns() {
		classes := Mixed(p)
		if len(classes) != 3 {
			t.Fatalf("%s: expected 3 classes", p)
		}
		totalFraction := 0.0
		for _, c := range classes {
			totalFraction += c.Fraction
		}
		if totalFraction > 1.0 || totalFraction < 0.9 {
			t.Errorf("%s: total load fraction %v out of range", p, totalFraction)
		}
	}
	// Spot-check specific Table 2 entries.
	moreNL := Mixed(PatternMoreNL)
	if moreNL[0].Fraction != 0.99*4/6 || moreNL[0].MaxPairs != 3 {
		t.Fatalf("MoreNL NL class wrong: %+v", moreNL[0])
	}
	if moreNL[2].MaxPairs != 256 {
		t.Fatal("MoreNL MD class should allow up to 256 pairs")
	}
	noNL := Mixed(PatternNoNLMoreMD)
	if noNL[0].Fraction != 0 {
		t.Fatal("NoNLMoreMD should have no NL load")
	}
	if noNL[2].Fraction != 0.99*4/5 {
		t.Fatal("NoNLMoreMD MD fraction wrong")
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
	if noNL[1].Fraction != 0.99*4/5 {
		t.Fatal("pattern (ii) MD fraction wrong")
	}
}
