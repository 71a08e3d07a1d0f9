package bench

import (
	"time"

	"wavetile/internal/autotune"
	"wavetile/internal/cachesim"
	"wavetile/internal/obs"
	"wavetile/internal/roofline"
	"wavetile/internal/tiling"
)

// ---------------------------------------------------------------------------
// Predictive autotuning: the full sweep (TuneWTB) measures every candidate
// on hardware; TunePredictWTB replays each candidate on a small trace grid
// through the calibrated machine's cache hierarchy, ranks by the roofline
// model, and measures only the top-K. PredictBench runs both and scores the
// predictor (winner agreement, regret) — the PR's validation harness.

// PredictTuneOptions size the predictive tuner.
type PredictTuneOptions struct {
	// TraceN/TraceNt size the per-candidate trace replay (defaults 48/4).
	// The machine's cache capacities are scaled by (TraceN/N)² so the
	// fits/doesn't-fit structure matches the full-size run (see cacheScale).
	TraceN  int
	TraceNt int
	// TopK is how many best-predicted candidates to confirm on hardware;
	// 0 = pure zero-shot ranking.
	TopK int
	// TuneSteps/Repeats control the confirmation measurements (defaults 4/1).
	TuneSteps int
	Repeats   int
}

func (o *PredictTuneOptions) defaults() {
	if o.TraceN == 0 {
		o.TraceN = 48
	}
	if o.TraceNt == 0 {
		o.TraceNt = 4
	}
	if o.TuneSteps == 0 {
		o.TuneSteps = 4
	}
	if o.Repeats == 0 {
		o.Repeats = 1
	}
}

// TunePredictWTB is the predictive counterpart of TuneWTB: same
// candidate grid, same schedule executor, but candidates are ranked by
// trace-replay + calibrated roofline instead of wall-clock sweeps, and only
// the top-K are measured. Distinct candidates that clamp to the same trace
// configuration share one replay (memoized), so the model evaluation per
// candidate is O(1) after its clamp class has been traced once.
func TunePredictWTB(spec Spec, kind tiling.Kind, cal roofline.Calibrated, tts []int, o PredictTuneOptions) ([]autotune.PredictResult, error) {
	o.defaults()
	built, err := Spec{
		Model: spec.Model, SO: spec.SO, N: spec.N, NBL: spec.NBL,
		Steps: o.TuneSteps, NSrc: spec.NSrc, SrcLayout: spec.SrcLayout, NRec: spec.NRec,
	}.Build()
	if err != nil {
		return nil, err
	}
	cands := autotune.Candidates(built.Geom.Nx, built.Geom.Ny, built.Prop.MinTile(), tts)

	// Trace-grid machine: cache capacities shrink with the grid so tile
	// working sets keep their fits/doesn't-fit relation to each level.
	scaled := cal
	scaled.Machine.Cache = cal.Machine.Cache.Scaled(cacheScale(SimOptions{TraceN: o.TraceN, RefN: spec.N}))

	sh, err := traceShape(spec, SimOptions{TraceN: o.TraceN, TraceNt: o.TraceNt})
	if err != nil {
		return nil, err
	}
	tracePoints := float64(o.TraceN) * float64(o.TraceN) * float64(o.TraceN) * float64(o.TraceNt)
	flops := float64(flopsPerPoint(spec.Model, spec.SO)) * tracePoints

	memo := map[tiling.Config]cachesim.Traffic{}
	traffic := func(cfg tiling.Config) (cachesim.Traffic, error) {
		h := cachesim.New(scaled.Machine.Cache)
		p, err := traceProp(spec.Model, sh, h)
		if err != nil {
			return cachesim.Traffic{}, err
		}
		key := clampConfig(cfg, p.MinTile(), o.TraceN, o.TraceNt)
		if t, ok := memo[key]; ok {
			return t, nil
		}
		if err := tiling.RunWTB(p, key); err != nil {
			return cachesim.Traffic{}, err
		}
		t := h.Snapshot(spec.Name())
		memo[key] = t
		return t, nil
	}

	runner := func(nt int) (tiling.Propagator, error) {
		built.Reset()
		return built.Prop, nil
	}
	return autotune.TunePredict(scaled, flops, tracePoints, traffic, cands, runner, kind,
		autotune.PredictOptions{TopK: o.TopK, TuneSteps: o.TuneSteps, Repeats: o.Repeats, Points: built.PointsPerStep})
}

// ---------------------------------------------------------------------------
// Calibration samples: measured runs paired with their exact trace replay.

// CalSamples measures a few schedules of each spec on the host and replays
// each on a trace grid of the *same* size through the machine's unscaled
// hierarchy — exact (run, traffic) pairs for roofline.Fit. Specs should be
// small (N ≈ 48–64) with a short step budget so calibration stays quick.
func CalSamples(m roofline.Machine, specs []Spec, repeats int) ([]roofline.CalSample, error) {
	var out []roofline.CalSample
	for _, s := range specs {
		if s.Steps == 0 {
			s.Steps = 6
		}
		p, err := s.Build()
		if err != nil {
			return nil, err
		}
		points := float64(p.PointsPerStep) * float64(p.Geom.Nt)
		flops := float64(p.FlopsPerPoint) * points

		replay := func(run func(tp tiling.Propagator) error) (cachesim.Traffic, error) {
			sh, err := traceShape(s, SimOptions{TraceN: s.N, TraceNt: p.Geom.Nt})
			if err != nil {
				return cachesim.Traffic{}, err
			}
			h := cachesim.New(m.Cache)
			tp, err := traceProp(s.Model, sh, h)
			if err != nil {
				return cachesim.Traffic{}, err
			}
			if err := run(tp); err != nil {
				return cachesim.Traffic{}, err
			}
			return h.Snapshot(s.Name()), nil
		}

		// Spatial baseline.
		el, err := MeasureSpatial(p, 8, 8, repeats, false)
		if err != nil {
			return nil, err
		}
		t, err := replay(func(tp tiling.Propagator) error {
			tiling.RunSpatial(tp, 0, 0, false)
			return nil
		})
		if err != nil {
			return nil, err
		}
		out = append(out, roofline.CalSample{
			Name: s.Name() + " spatial", Flops: flops, Points: points,
			Traffic: t, MeasuredSeconds: el.Seconds(),
		})

		// A few WTB shapes spanning shallow/deep time tiles.
		minTile := p.Prop.MinTile()
		for _, cfg := range []tiling.Config{
			{TT: 2, TileX: 32, TileY: 32, BlockX: 8, BlockY: 8},
			{TT: 4, TileX: 32, TileY: 32, BlockX: 8, BlockY: 8},
		} {
			cfg = clampConfig(cfg, minTile, s.N, p.Geom.Nt)
			el, err := MeasureWTB(p, cfg, repeats)
			if err != nil {
				return nil, err
			}
			t, err := replay(func(tp tiling.Propagator) error {
				return tiling.RunWTB(tp, clampConfig(cfg, tp.MinTile(), s.N, p.Geom.Nt))
			})
			if err != nil {
				return nil, err
			}
			out = append(out, roofline.CalSample{
				Name: s.Name() + " " + cfg.String(), Flops: flops, Points: points,
				Traffic: t, MeasuredSeconds: el.Seconds(),
			})
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Sweep-vs-predict validation harness

// PredictReportKind tags the JSON document PredictBench emits.
const PredictReportKind = "wavetile.autotune-predict"

// PredictRow scores the predictor against the full sweep on one scenario.
type PredictRow struct {
	Model      string `json:"model"`
	SO         int    `json:"so"`
	Candidates int    `json:"candidates"`
	// Tuning wall-clock of each strategy, in milliseconds.
	SweepMS   float64 `json:"sweep_ms"`
	PredictMS float64 `json:"predict_ms"`
	// Measured is how many hardware measurements the predictor spent (≤ TopK).
	Measured int `json:"measured"`

	SweepWinner   string `json:"sweep_winner"`
	PredictWinner string `json:"predict_winner"`
	Agree         bool   `json:"agree"`

	// Throughputs of both winners as measured by the sweep, and the regret:
	// 1 − predict-winner GPts ÷ sweep-winner GPts (0 = perfect pick).
	SweepGPts   float64 `json:"sweep_gpts"`
	PredictGPts float64 `json:"predict_gpts"`
	Regret      float64 `json:"regret"`
}

// PredictBenchDoc is the persisted sweep-vs-predict comparison.
type PredictBenchDoc struct {
	Kind    string       `json:"kind"`
	Version int          `json:"version"`
	Host    obs.HostInfo `json:"host"`
	Machine string       `json:"machine"`
	TopK    int          `json:"topk"`
	Rows    []PredictRow `json:"rows"`
}

// PredictBench runs the full sweep and the predictive tuner over each spec
// and scores the predictor. Regret is computed from the sweep's own
// measurements — the predict winner's standing in the exhaustive ranking —
// so it costs no extra runs.
func PredictBench(specs []Spec, cal roofline.Calibrated, tts []int, o PredictTuneOptions) (*PredictBenchDoc, error) {
	o.defaults()
	doc := &PredictBenchDoc{
		Kind: PredictReportKind, Version: 1,
		Host: obs.HostFingerprint(), Machine: cal.Machine.Name, TopK: o.TopK,
	}
	for _, s := range specs {
		start := time.Now()
		sweep, err := TuneWTB(s, tiling.WTB, o.TuneSteps, o.Repeats, tts)
		if err != nil {
			return nil, err
		}
		sweepMS := time.Since(start).Seconds() * 1e3

		start = time.Now()
		pred, err := TunePredictWTB(s, tiling.WTB, cal, tts, o)
		if err != nil {
			return nil, err
		}
		predictMS := time.Since(start).Seconds() * 1e3

		byCfg := make(map[tiling.Config]autotune.Result, len(sweep))
		for _, r := range sweep {
			byCfg[r.Cfg] = r
		}
		row := PredictRow{
			Model: s.Model, SO: s.SO, Candidates: len(sweep),
			SweepMS: sweepMS, PredictMS: predictMS,
			SweepWinner:   sweep[0].Cfg.String(),
			PredictWinner: pred[0].Cfg.String(),
			Agree:         sweep[0].Cfg == pred[0].Cfg,
			SweepGPts:     sweep[0].GPts,
		}
		for _, r := range pred {
			if r.Measured {
				row.Measured++
			}
		}
		if picked, ok := byCfg[pred[0].Cfg]; ok {
			row.PredictGPts = picked.GPts
			if sweep[0].GPts > 0 {
				row.Regret = 1 - picked.GPts/sweep[0].GPts
			}
		}
		doc.Rows = append(doc.Rows, row)
	}
	return doc, nil
}
