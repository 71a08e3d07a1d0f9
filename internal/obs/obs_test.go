package obs_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"wavetile/internal/obs"
	"wavetile/internal/par"
)

// TestCounterAtomicUnderParFor hammers one counter from the parallel
// runtime the hot paths use and asserts no increments are lost.
func TestCounterAtomicUnderParFor(t *testing.T) {
	r := obs.NewRegistry()
	c := r.Counter("hits")
	const n, per = 2048, 64
	par.For(n, func(int) {
		for j := 0; j < per; j++ {
			c.Add(1)
		}
	})
	if got := c.Load(); got != n*per {
		t.Fatalf("counter = %d, want %d", got, n*per)
	}
	if got := r.Snapshot().Counters["hits"]; got != n*per {
		t.Fatalf("snapshot counter = %d, want %d", got, n*per)
	}
}

// TestWorkerBusyUnderParFor drives Section.Observe from concurrent workers
// and checks the per-worker table survives the race detector and sums up.
func TestWorkerBusyUnderParFor(t *testing.T) {
	r := obs.NewRegistry()
	restore := obs.Swap(r)
	defer restore()
	sec := obs.SectionStart()
	if sec == nil {
		t.Fatal("SectionStart returned nil with an active registry")
	}
	par.ForWorkers(256, func(w, i int) {
		sec.Observe(obs.PhaseStencil, w, time.Now().Add(-time.Millisecond))
	})
	sec.End(0)
	var total time.Duration
	for _, row := range r.Snapshot().Workers {
		total += row[obs.PhaseStencil.String()]
	}
	if total < 256*time.Millisecond {
		t.Fatalf("worker busy total = %v, want ≥ %v", total, 256*time.Millisecond)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &obs.Histogram{}
	cases := []struct {
		d      time.Duration
		bucket int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},            // < 1µs
		{time.Microsecond, 1},                 // [1, 2) µs
		{3 * time.Microsecond, 2},             // [2, 4) µs
		{1000 * time.Microsecond, 10},         // [512, 1024) µs
		{24 * time.Hour, obs.HistBuckets - 1}, // clamped into the last bucket
	}
	for _, c := range cases {
		h.Observe(c.d)
	}
	var hs obs.HistSnapshot
	{
		r := obs.NewRegistry()
		rh := r.Histogram("h")
		for _, c := range cases {
			rh.Observe(c.d)
		}
		hs = r.Snapshot().Histograms["h"]
	}
	if hs.Count != int64(len(cases)) {
		t.Fatalf("count = %d, want %d", hs.Count, len(cases))
	}
	want := map[int]int64{}
	for _, c := range cases {
		want[c.bucket]++
	}
	for i, n := range hs.Buckets {
		if n != want[i] {
			t.Errorf("bucket %d = %d, want %d", i, n, want[i])
		}
	}
	// Bounds are monotone and bucket 1's bound is 2µs (covers [1,2)µs... the
	// *exclusive upper* bound of bucket i is 2^i µs).
	if obs.HistBucketBound(0) != time.Microsecond || obs.HistBucketBound(1) != 2*time.Microsecond {
		t.Fatalf("bucket bounds: %v %v", obs.HistBucketBound(0), obs.HistBucketBound(1))
	}
	for i := 1; i < obs.HistBuckets-1; i++ {
		if obs.HistBucketBound(i) <= obs.HistBucketBound(i-1) {
			t.Fatalf("bounds not monotone at %d", i)
		}
	}
}

// TestDisabledIsNoOp asserts the disabled path does nothing: SectionStart
// returns nil, every nil-section method is safe, and none of it allocates.
func TestDisabledIsNoOp(t *testing.T) {
	restore := obs.Swap(nil)
	defer restore()
	if obs.Active() != nil {
		t.Fatal("Active() != nil after Swap(nil)")
	}
	sec := obs.SectionStart()
	if sec != nil {
		t.Fatal("SectionStart() != nil while disabled")
	}
	// All no-op paths must be panic-free.
	sec.Observe(obs.PhaseStencil, 0, sec.Now())
	sec.ObserveBlock(sec.Now())
	sec.End(1)
	var nilReg *obs.Registry
	if nilReg.Tracer() != nil {
		t.Fatal("nil registry has a tracer")
	}
	allocs := testing.AllocsPerRun(100, func() {
		s := obs.SectionStart()
		s.Observe(obs.PhaseInject, 1, s.Now())
		s.ObserveBlock(s.Now())
		s.End(1)
	})
	if allocs != 0 {
		t.Fatalf("disabled instrumentation allocates %.1f objects/op, want 0", allocs)
	}
}

// TestSectionAttribution checks End distributes a section's wall time over
// phases proportionally to busy time, so phase sums track wall clock.
func TestSectionAttribution(t *testing.T) {
	r := obs.NewRegistry()
	restore := obs.Swap(r)
	defer restore()
	sec := obs.SectionStart()
	// Fabricate 30ms stencil + 10ms inject busy time via backdated starts.
	sec.Observe(obs.PhaseStencil, 0, time.Now().Add(-30*time.Millisecond))
	sec.Observe(obs.PhaseInject, 1, time.Now().Add(-10*time.Millisecond))
	time.Sleep(2 * time.Millisecond) // give the section a measurable wall
	sec.End(0)

	snap := r.Snapshot()
	st := snap.Phases[obs.PhaseStencil.String()]
	in := snap.Phases[obs.PhaseInject.String()]
	if st <= 0 || in <= 0 {
		t.Fatalf("phases not attributed: stencil=%v inject=%v", st, in)
	}
	ratio := float64(st) / float64(in)
	if ratio < 2.5 || ratio > 3.5 {
		t.Fatalf("stencil/inject ratio = %.2f, want ≈ 3 (busy-proportional)", ratio)
	}
	// Attributed total never exceeds the section wall time.
	if tot := snap.PhaseTotal(); tot > time.Second {
		t.Fatalf("attributed %v, far beyond plausible wall", tot)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("c").Add(5)
	r.AddStep(100)
	r.AddPhase(obs.PhaseSparse, 7*time.Millisecond)
	before := r.Snapshot()
	r.Counter("c").Add(3)
	r.AddStep(50)
	r.AddPhase(obs.PhaseSparse, time.Millisecond)
	d := r.Snapshot().DeltaFrom(before)
	if d.Counters["c"] != 3 || d.Counters["steps"] != 1 || d.Counters["points"] != 50 {
		t.Fatalf("bad counter delta: %+v", d.Counters)
	}
	if d.Phases[obs.PhaseSparse.String()] != time.Millisecond {
		t.Fatalf("bad phase delta: %v", d.Phases)
	}
}

func TestTracerChromeJSON(t *testing.T) {
	r := obs.NewRegistry()
	tr := r.StartTrace()
	if r.StartTrace() != tr {
		t.Fatal("StartTrace not idempotent")
	}
	start := time.Now()
	tr.Complete("tile 0,0", "wtb", 1, start, 2*time.Millisecond, map[string]any{"bx": 0})
	tr.Complete("time-tile 0..8", "wtb", 0, start, 5*time.Millisecond, nil)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			TID  int     `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 2 {
		t.Fatalf("got %d events, want 2", len(doc.TraceEvents))
	}
	if doc.TraceEvents[0].Ph != "X" || doc.TraceEvents[0].Dur != 2000 {
		t.Fatalf("bad first event: %+v", doc.TraceEvents[0])
	}
	var nilTr *obs.Tracer
	nilTr.Complete("x", "", 0, start, 0, nil) // no-op, no panic
	if nilTr.Len() != 0 || nilTr.Dropped() != 0 {
		t.Fatal("nil tracer reports events")
	}
}

func TestProgressThrottle(t *testing.T) {
	r := obs.NewRegistry()
	r.EnableProgress(nil, time.Hour) // throttled: nothing should emit after t=0
	r.StepsDone(1, 10)               // must not panic and must be cheap
	r.StepsDone(2, 10)
}
