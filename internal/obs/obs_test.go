package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/sim"
)

// TestRingOverwrite checks flight-recorder semantics: a full ring keeps the
// newest capacity records in write order.
func TestRingOverwrite(t *testing.T) {
	tr := NewTracer(1, 16)
	r := tr.Ring(0, LayerEGP)
	for i := 0; i < 40; i++ {
		r.Record(sim.Time(i), KindEGPOK, 7, int64(i), 0)
	}
	if got := r.Len(); got != 16 {
		t.Fatalf("Len = %d, want 16", got)
	}
	if got := r.Dropped(); got != 24 {
		t.Fatalf("Dropped = %d, want 24", got)
	}
	recs := tr.Records()
	if len(recs) != 16 {
		t.Fatalf("Records len = %d, want 16", len(recs))
	}
	for i, rec := range recs {
		want := int64(24 + i)
		if rec.A != want || rec.At != sim.Time(want) {
			t.Fatalf("record %d: got A=%d At=%d, want %d", i, rec.A, rec.At, want)
		}
	}
}

// TestNilTracer checks the disabled tracer end to end: nil tracer, nil ring,
// empty merge, empty-but-valid Chrome export.
func TestNilTracer(t *testing.T) {
	var tr *Tracer
	if tr.Shards() != 0 || tr.Dropped() != 0 {
		t.Fatal("nil tracer must report zero shards and drops")
	}
	r := tr.Ring(0, LayerSim)
	if r != nil {
		t.Fatal("nil tracer must hand out nil rings")
	}
	r.Record(0, KindBatch, 0, 1, 2) // must not panic
	if got := tr.Records(); got != nil {
		t.Fatalf("nil tracer Records = %v, want nil", got)
	}
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("empty trace is not valid JSON: %v\n%s", err, buf.String())
	}
}

// TestMergeOrder checks the deterministic merge key (At, Layer, Track, Seq)
// across shards and layers.
func TestMergeOrder(t *testing.T) {
	tr := NewTracer(2, 16)
	// Same timestamp from two shards and two layers, interleaved writes.
	tr.Ring(1, LayerEGP).Record(100, KindEGPOK, 5, 1, 0)
	tr.Ring(0, LayerMHP).Record(100, KindMHPAttempt, 2, 2, 0)
	tr.Ring(0, LayerEGP).Record(100, KindEGPOK, 3, 3, 0)
	tr.Ring(1, LayerEGP).Record(50, KindEGPError, 5, 4, 0)
	recs := tr.Records()
	if len(recs) != 4 {
		t.Fatalf("got %d records, want 4", len(recs))
	}
	wantA := []int64{4, 2, 3, 1} // t=50 first, then layer MHP < EGP, then track 3 < 5
	for i, rec := range recs {
		if rec.A != wantA[i] {
			t.Fatalf("merge order: record %d has A=%d, want %d", i, rec.A, wantA[i])
		}
	}
}

// TestWriteChromeValid builds a small multi-layer trace and checks the
// export parses as JSON with the expected span structure.
func TestWriteChromeValid(t *testing.T) {
	tr := NewTracer(1, 64)
	simRing := tr.Ring(0, LayerSim)
	netRing := tr.Ring(0, LayerNetwork)
	simRing.Record(0, KindBatch, 0, 3, 10)
	netRing.Record(1000, KindE2ECreate, 9, 0, 4)
	netRing.Record(2000, KindE2ESegment, 9, 0, 1)
	netRing.Record(2500, KindE2ESwap, 9, 1, 2)
	netRing.Record(2600, KindE2ECorrection, 9, 4, 2)
	netRing.Record(3000, KindE2EDone, 9, 1, 0)

	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.String())
	}
	phases := map[string]int{}
	for _, ev := range doc.TraceEvents {
		phases[ev["ph"].(string)]++
	}
	if phases["b"] != 1 || phases["e"] != 1 || phases["n"] != 3 || phases["C"] != 1 {
		t.Fatalf("unexpected phase counts: %v", phases)
	}
	if phases["M"] < 2 {
		t.Fatalf("expected process+thread metadata, got %v", phases)
	}
	// The span open must carry the request ID and a µs timestamp of 1.000.
	for _, ev := range doc.TraceEvents {
		if ev["ph"] == "b" {
			if ev["id"].(float64) != 9 {
				t.Fatalf("span id = %v, want 9", ev["id"])
			}
			if ev["ts"].(float64) != 1.0 {
				t.Fatalf("span ts = %v, want 1.0", ev["ts"])
			}
		}
	}
}

// TestHistogramBuckets checks the log-linear bucket mapping: exact below 8,
// monotone lower bounds, and lower bound <= value everywhere.
func TestHistogramBuckets(t *testing.T) {
	for v := uint64(0); v < 8; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want exact", v, got)
		}
	}
	prev := -1
	for _, v := range []uint64{0, 1, 7, 8, 9, 15, 16, 31, 100, 1000, 1 << 20, 1 << 40, 1<<63 + 5, math.MaxUint64} {
		i := bucketIndex(v)
		if i < 0 || i >= histBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		if low := bucketLow(i); low > v {
			t.Fatalf("bucketLow(%d)=%d > value %d", i, low, v)
		}
		if i < prev {
			t.Fatalf("bucket index not monotone at %d", v)
		}
		prev = i
	}
	// Round-trip: every bucket's lower bound must map back to itself.
	for i := 0; i < histBuckets; i++ {
		if got := bucketIndex(bucketLow(i)); got != i {
			t.Fatalf("bucketIndex(bucketLow(%d)) = %d", i, got)
		}
	}
}

// TestHistogramQuantile checks nearest-rank quantiles at bucket lower bounds.
func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
	for v := int64(1); v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 || h.Sum() != 5050 {
		t.Fatalf("count/sum = %d/%d", h.Count(), h.Sum())
	}
	p50 := h.Quantile(0.5)
	if p50 < 40 || p50 > 50 {
		t.Fatalf("p50 = %d, want within one bucket of 50", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 < 88 || p99 > 99 {
		t.Fatalf("p99 = %d, want within one bucket of 99", p99)
	}
	if h.Quantile(0) != 1 {
		t.Fatalf("q0 = %d, want 1", h.Quantile(0))
	}
	// Negative observations clamp to zero rather than corrupting buckets.
	h.Observe(-5)
	if h.Quantile(0) != 0 {
		t.Fatal("negative observation must clamp to bucket 0")
	}
}

// TestRegistrySnapshot checks nil-safety, that a snapshot reads each
// counter's value when it is taken, that a name registers once, and the two
// snapshot encodings.
func TestRegistrySnapshot(t *testing.T) {
	var nilReg *Registry
	nilReg.CounterFunc("x", func() uint64 { return 1 }) // ignored, no panic
	if nilReg.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil histograms")
	}
	nilReg.Histogram("x").Observe(1)
	snap := nilReg.Snapshot(sim.Time(sim.Second))
	if snap.SimSeconds != 1 || snap.Counters != nil {
		t.Fatalf("nil registry snapshot = %+v", snap)
	}

	r := NewRegistry()
	if snap := r.Snapshot(0); snap.Counters != nil || snap.Histograms != nil {
		t.Fatalf("empty registry snapshot = %+v", snap)
	}
	var oks uint64
	r.CounterFunc("egp.oks", func() uint64 { return oks })
	r.CounterFunc("idle", func() uint64 { return 0 })
	oks = 42 // counted after registration: the snapshot reads it then
	r.Histogram("ttp_ns").Observe(1500)
	snap = r.Snapshot(sim.Time(2 * sim.Second))
	if snap.Counters["egp.oks"] != 42 {
		t.Fatalf("counter = %d, want 42", snap.Counters["egp.oks"])
	}
	if v, ok := snap.Counters["idle"]; !ok || v != 0 {
		t.Fatalf("a registered counter at 0 must be in the snapshot: %v %v", v, ok)
	}
	if st := snap.Histograms["ttp_ns"]; st.Count != 1 || st.Sum != 1500 {
		t.Fatalf("histogram stats = %+v", st)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("registering a counter name twice must panic")
			}
		}()
		r.CounterFunc("egp.oks", func() uint64 { return 0 })
	}()

	var jsonBuf bytes.Buffer
	if err := snap.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &back); err != nil {
		t.Fatalf("snapshot JSON does not round-trip: %v", err)
	}
	if back.Counters["egp.oks"] != 42 || back.SimSeconds != 2 {
		t.Fatalf("round-trip = %+v", back)
	}

	var tableBuf bytes.Buffer
	if err := snap.WriteTable(&tableBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(tableBuf.Bytes(), []byte("egp.oks")) {
		t.Fatalf("table missing counter:\n%s", tableBuf.String())
	}
}

// TestClassHistograms checks the per-class bundle and its bounds behavior.
func TestClassHistograms(t *testing.T) {
	r := NewRegistry()
	ch := NewClassHistograms(r, "link.ttp_ns")
	ch.Observe(2, sim.Duration(5*sim.Microsecond))
	ch.Observe(-1, 1) // out of range: no-op
	ch.Observe(99, 1) // out of range: no-op
	if got := ch.Class(2).Count(); got != 1 {
		t.Fatalf("class md count = %d, want 1", got)
	}
	if got := r.Histogram("link.ttp_ns.md").Count(); got != 1 {
		t.Fatalf("registry histogram count = %d, want 1", got)
	}
	var nilCH *ClassHistograms
	nilCH.Observe(0, 1) // no-op, no panic
	if nilCH.Class(0) != nil {
		t.Fatal("nil bundle must return nil class")
	}
	// Nil registry variant: bundle exists, all histograms nil.
	nilRegCH := NewClassHistograms(nil, "x")
	nilRegCH.Observe(1, 100)
	if nilRegCH.Class(1) != nil {
		t.Fatal("nil-registry bundle must hold nil histograms")
	}
}
