package autotune

import (
	"testing"

	"wavetile/internal/cachesim"
	"wavetile/internal/roofline"
	"wavetile/internal/tiling"
)

// fakeTraffic gives each configuration a deterministic DRAM cost keyed on
// TT: deeper time tiles → less traffic, mirroring temporal blocking.
func fakeTraffic(cfg tiling.Config) (cachesim.Traffic, error) {
	lines := uint64(1e9) / uint64(cfg.TT) / cachesim.LineSize
	return cachesim.Traffic{
		Boundary:  []uint64{4 * lines, 2 * lines, lines},
		DRAMBytes: lines * cachesim.LineSize,
	}, nil
}

func predictCands() []tiling.Config {
	return []tiling.Config{
		{TT: 1, TileX: 32, TileY: 32, BlockX: 8, BlockY: 8},
		{TT: 8, TileX: 32, TileY: 32, BlockX: 8, BlockY: 8},
		{TT: 2, TileX: 64, TileY: 64, BlockX: 8, BlockY: 8},
		{TT: 4, TileX: 64, TileY: 64, BlockX: 8, BlockY: 8},
	}
}

func TestTunePredictZeroShot(t *testing.T) {
	runs := 0
	run := func(nt int) (tiling.Propagator, error) {
		runs++
		return &sleepProp{nx: 64, ny: 64, nt: nt}, nil
	}
	cal := roofline.Calibrated{Machine: roofline.Broadwell(), BWEff: 0.8, OverheadNSPerPoint: 1}
	res, err := TunePredict(cal, 1e8, 1e7, fakeTraffic, predictCands(), run, tiling.WTB,
		PredictOptions{TopK: 0})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 0 {
		t.Fatalf("zero-shot mode ran %d measurements", runs)
	}
	if len(res) != 4 {
		t.Fatalf("%d results", len(res))
	}
	// Least traffic (deepest TT) must be predicted fastest.
	if res[0].Cfg.TT != 8 {
		t.Fatalf("predicted winner TT=%d, want 8", res[0].Cfg.TT)
	}
	for i := 1; i < len(res); i++ {
		if res[i].Predicted.Seconds < res[i-1].Predicted.Seconds {
			t.Fatal("not sorted by predicted time")
		}
		if res[i].PredRank != i {
			t.Fatalf("rank %d at position %d", res[i].PredRank, i)
		}
		if res[i].Measured {
			t.Fatal("zero-shot result marked measured")
		}
	}
}

func TestTunePredictMeasuresOnlyTopK(t *testing.T) {
	const k, repeats = 2, 2
	runs := 0
	run := func(nt int) (tiling.Propagator, error) {
		runs++
		return &sleepProp{nx: 64, ny: 64, nt: nt}, nil
	}
	cal := roofline.Calibrated{Machine: roofline.Broadwell(), BWEff: 1}
	res, err := TunePredict(cal, 1e8, 1e7, fakeTraffic, predictCands(), run, tiling.WTB,
		PredictOptions{TopK: k, TuneSteps: 4, Repeats: repeats, Points: 64 * 64})
	if err != nil {
		t.Fatal(err)
	}
	if runs != k*repeats {
		t.Fatalf("ran %d measurements, want exactly TopK·Repeats = %d", runs, k*repeats)
	}
	measured := 0
	for _, r := range res {
		if r.Measured {
			measured++
			if r.Elapsed <= 0 || r.GPts <= 0 {
				t.Fatalf("measured entry without timing: %+v", r)
			}
		}
	}
	if measured != k {
		t.Fatalf("%d measured entries, want %d", measured, k)
	}
	// Measured candidates lead the result, ordered by wall clock.
	if !res[0].Measured || !res[1].Measured || res[2].Measured {
		t.Fatalf("measured prefix broken: %v %v %v", res[0].Measured, res[1].Measured, res[2].Measured)
	}
	if res[1].Elapsed < res[0].Elapsed {
		t.Fatal("measured prefix not sorted by elapsed")
	}
}

func TestTunePredictTopKExceedingCandidates(t *testing.T) {
	run := func(nt int) (tiling.Propagator, error) {
		return &sleepProp{nx: 64, ny: 64, nt: nt}, nil
	}
	cal := roofline.Calibrated{Machine: roofline.Broadwell()}
	res, err := TunePredict(cal, 1e8, 1e7, fakeTraffic, predictCands(), run, tiling.WTB,
		PredictOptions{TopK: 100, TuneSteps: 1, Points: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if !r.Measured {
			t.Fatal("TopK beyond candidate count must measure everything")
		}
	}
}

func TestTunePredictDeterministicRanking(t *testing.T) {
	cal := roofline.Calibrated{Machine: roofline.Broadwell(), BWEff: 0.7, OverheadNSPerPoint: 2}
	rank := func() []tiling.Config {
		res, err := TunePredict(cal, 1e8, 1e7, fakeTraffic, predictCands(), nil, tiling.WTB,
			PredictOptions{TopK: 0})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]tiling.Config, len(res))
		for i, r := range res {
			out[i] = r.Cfg
		}
		return out
	}
	a, b := rank(), rank()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ranking not deterministic at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestTunePredictEmptyCandidates(t *testing.T) {
	_, err := TunePredict(roofline.Calibrated{Machine: roofline.Broadwell()},
		1, 1, fakeTraffic, nil, nil, tiling.WTB, PredictOptions{})
	if err == nil {
		t.Fatal("empty candidate list accepted")
	}
}
