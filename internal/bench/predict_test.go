package bench

import (
	"testing"

	"wavetile/internal/roofline"
	"wavetile/internal/tiling"
)

func TestTunePredictWTBSmoke(t *testing.T) {
	spec := Spec{Model: "acoustic", SO: 4, N: 32, Steps: 4}
	cal := roofline.Calibrated{Machine: roofline.Broadwell(), BWEff: 0.8, OverheadNSPerPoint: 1}
	o := PredictTuneOptions{TraceN: 24, TraceNt: 2, TopK: 1, TuneSteps: 2}

	res, err := TunePredictWTB(spec, tiling.WTB, cal, []int{2}, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no candidates ranked")
	}
	measured := 0
	for _, r := range res {
		if r.Predicted.Seconds <= 0 {
			t.Fatalf("no prediction for %s: %+v", r.Cfg, r.Predicted)
		}
		if r.Measured {
			measured++
		}
	}
	if measured != 1 {
		t.Fatalf("TopK=1 must measure exactly one candidate, measured %d", measured)
	}
	if !res[0].Measured || res[0].GPts <= 0 {
		t.Fatalf("winner not confirmed: %+v", res[0])
	}

	// Ranking is deterministic: a second zero-shot pass orders identically.
	o.TopK = 0
	a, err := TunePredictWTB(spec, tiling.WTB, cal, []int{2}, o)
	if err != nil {
		t.Fatal(err)
	}
	b, err := TunePredictWTB(spec, tiling.WTB, cal, []int{2}, o)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Cfg != b[i].Cfg || a[i].Predicted.Seconds != b[i].Predicted.Seconds {
			t.Fatalf("ranking not deterministic at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestCalSamplesSmoke(t *testing.T) {
	m := roofline.Broadwell()
	samples, err := CalSamples(m, []Spec{{Model: "acoustic", SO: 4, N: 24, Steps: 2}}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != 3 { // spatial + two WTB shapes
		t.Fatalf("%d samples, want 3", len(samples))
	}
	for _, s := range samples {
		if s.MeasuredSeconds <= 0 || s.Points <= 0 || s.Flops <= 0 {
			t.Fatalf("degenerate sample %+v", s)
		}
		if s.Traffic.Accesses == 0 {
			t.Fatalf("sample %q has no simulated traffic", s.Name)
		}
	}
	// The samples must be fittable.
	if _, _, err := roofline.Fit(m, samples); err != nil {
		t.Fatal(err)
	}
}

func TestPredictBenchSmoke(t *testing.T) {
	spec := Spec{Model: "acoustic", SO: 4, N: 32, Steps: 4}
	cal := roofline.Calibrated{Machine: roofline.Broadwell(), BWEff: 0.8}
	o := PredictTuneOptions{TraceN: 24, TraceNt: 2, TopK: 1, TuneSteps: 2}
	doc, err := PredictBench([]Spec{spec}, cal, []int{2}, o)
	if err != nil {
		t.Fatal(err)
	}
	if doc.Kind != PredictReportKind || len(doc.Rows) != 1 {
		t.Fatalf("bad doc: %+v", doc)
	}
	r := doc.Rows[0]
	if r.Candidates == 0 || r.SweepWinner == "" || r.PredictWinner == "" {
		t.Fatalf("bad row: %+v", r)
	}
	if r.Measured != 1 {
		t.Fatalf("predictor spent %d measurements, want 1", r.Measured)
	}
	if r.SweepGPts <= 0 || r.PredictGPts <= 0 {
		t.Fatalf("missing throughputs: %+v", r)
	}
	// Regret is well-defined: the predict winner exists in the sweep and
	// cannot beat the sweep's own best.
	if r.Regret < -1e-9 {
		t.Fatalf("negative regret %g", r.Regret)
	}
}
