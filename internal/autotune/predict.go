package autotune

import (
	"fmt"
	"sort"
	"time"

	"wavetile/internal/cachesim"
	"wavetile/internal/roofline"
	"wavetile/internal/tiling"
)

// ---------------------------------------------------------------------------
// Predictive tuning: rank the sweep grid by calibrated-roofline evaluation,
// measure only the top-K candidates. The full sweep runs every candidate on
// hardware (minutes); the predictor replays each candidate's schedule on a
// small trace grid through the cache simulator (milliseconds) and evaluates
// a measured-machine roofline — an O(1)-cost model evaluation per candidate
// in place of a wall-clock measurement.

// TrafficFn returns the simulated cache traffic of one schedule
// configuration — typically a memoized trace-grid replay supplied by
// internal/bench, so autotune stays independent of the physics packages.
type TrafficFn func(tiling.Config) (cachesim.Traffic, error)

// PredictOptions controls TunePredict.
type PredictOptions struct {
	// TopK is how many of the best-predicted candidates to confirm with
	// wall-clock measurements. 0 is pure zero-shot: trust the model, run
	// nothing.
	TopK int
	// TuneSteps and Repeats control the confirmation measurements, exactly
	// as in Tune.
	TuneSteps int
	Repeats   int
	// Points is the grid points updated per timestep (for GPts/s of the
	// confirmation runs).
	Points int
}

// PredictResult is one candidate's predicted — and possibly measured —
// standing.
type PredictResult struct {
	Cfg       tiling.Config
	Predicted roofline.Prediction
	// PredRank is the candidate's position (0 = best) in the model ranking.
	PredRank int
	// Measured is set on the top-K candidates that were confirmed on
	// hardware; Elapsed/GPts are only meaningful when it is.
	Measured bool
	Elapsed  time.Duration
	GPts     float64
}

// TunePredict ranks every candidate by the calibrated roofline — replaying
// its schedule through the cache simulator via traffic — and measures only
// the TopK best-predicted ones. flops and points are the per-run totals the
// predictions are evaluated at (matching the trace runs behind traffic; only
// the ranking matters, and it transfers to the full grid).
//
// The returned slice is winner-first: measured candidates sorted by measured
// time, then the rest sorted by predicted time. With TopK = 0 the order is
// purely model-ranked. The ranking is deterministic: stable in the candidate
// order on predicted-time ties, and the cache simulation itself is exact.
func TunePredict(cal roofline.Calibrated, flops, points float64, traffic TrafficFn,
	cands []tiling.Config, run Runner, kind tiling.Kind, o PredictOptions) ([]PredictResult, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("autotune: no candidates")
	}
	results := make([]PredictResult, 0, len(cands))
	for _, cfg := range cands {
		t, err := traffic(cfg)
		if err != nil {
			return nil, fmt.Errorf("autotune: trace replay of %s: %w", cfg, err)
		}
		results = append(results, PredictResult{Cfg: cfg, Predicted: cal.Predict(flops, points, t)})
	}
	sort.SliceStable(results, func(i, j int) bool {
		return results[i].Predicted.Seconds < results[j].Predicted.Seconds
	})
	for i := range results {
		results[i].PredRank = i
	}

	k := o.TopK
	if k > len(results) {
		k = len(results)
	}
	if k > 0 {
		for i := 0; i < k; i++ {
			best, err := bestOf(run, kind, results[i].Cfg, o.TuneSteps, o.Repeats, nil)
			if err != nil {
				return nil, err
			}
			results[i].Measured = true
			results[i].Elapsed = best
			results[i].GPts = float64(o.Points) * float64(o.TuneSteps) / best.Seconds() / 1e9
		}
		// Within the measured prefix, the wall clock has the final word.
		sort.SliceStable(results[:k], func(i, j int) bool {
			return results[i].Elapsed < results[j].Elapsed
		})
	}
	return results, nil
}
