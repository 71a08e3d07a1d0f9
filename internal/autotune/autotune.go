// Package autotune sweeps the wave-front temporal-blocking parameter space
// — time-tile depth, tile shape, block shape — and picks the fastest
// configuration, reproducing the paper's §IV-C procedure ("we swept over
// the whole parameter space to find the global performance maxima") that
// yields the optimal tile/block shapes of Table I.
package autotune

import (
	"fmt"
	"sort"
	"time"

	"wavetile/internal/tiling"
)

// Result records one measured configuration.
type Result struct {
	Cfg     tiling.Config
	Elapsed time.Duration
	GPts    float64 // GPoints/s over the tuning run
}

// Candidates builds the sweep grid: tiles from the dependency margin up to
// the domain edge in powers of two, the paper's block shapes, and the given
// time-tile depths. Illegal combinations (tile below margin) are dropped.
func Candidates(nx, ny, minTile int, tts []int) []tiling.Config {
	tileSizes := []int{16, 32, 40, 48, 56, 64, 128, 256}
	blockSizes := []int{4, 8, 12, 16}
	var out []tiling.Config
	for _, tt := range tts {
		for _, tx := range tileSizes {
			if tx < minTile || tx > nx {
				continue
			}
			for _, ty := range tileSizes {
				if ty < minTile || ty > ny {
					continue
				}
				for _, bx := range blockSizes {
					if bx > tx {
						continue
					}
					for _, by := range blockSizes {
						if by > ty {
							continue
						}
						out = append(out, tiling.Config{TT: tt, TileX: tx, TileY: ty, BlockX: bx, BlockY: by})
					}
				}
			}
		}
	}
	return out
}

// Runner builds a fresh (or reset) propagator limited to nt timesteps for
// one tuning measurement.
type Runner func(nt int) (tiling.Propagator, error)

// bestOf times cfg under kind over the whole time axis of a propagator from
// run(tuneSteps), repeats times (at least once), and returns the fastest.
// setup, when non-nil, adjusts each fresh propagator before its clock
// starts.
func bestOf(run Runner, kind tiling.Kind, cfg tiling.Config, tuneSteps, repeats int,
	setup func(tiling.Propagator) error) (time.Duration, error) {
	best := time.Duration(0)
	for r := 0; r < max(1, repeats); r++ {
		p, err := run(tuneSteps)
		if err != nil {
			return 0, err
		}
		if setup != nil {
			if err := setup(p); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := tiling.Run(p, kind, cfg, 0, p.Steps(), nil); err != nil {
			return 0, err
		}
		if el := time.Since(start); best == 0 || el < best {
			best = el
		}
	}
	return best, nil
}

// Tune measures every candidate under the schedule kind (tiling.WTB or
// tiling.WTBPipelined — the same sweep grid tunes either drain) over
// tuneSteps timesteps (repeats times, best-of) and returns all results
// sorted fastest-first. points is the number of grid points updated per
// timestep (for GPts/s).
func Tune(run Runner, kind tiling.Kind, tuneSteps, repeats int, points int, cands []tiling.Config) ([]Result, error) {
	if len(cands) == 0 {
		return nil, fmt.Errorf("autotune: no candidates")
	}
	results := make([]Result, 0, len(cands))
	for _, cfg := range cands {
		best, err := bestOf(run, kind, cfg, tuneSteps, repeats, nil)
		if err != nil {
			return nil, err
		}
		results = append(results, Result{
			Cfg:     cfg,
			Elapsed: best,
			GPts:    float64(points) * float64(tuneSteps) / best.Seconds() / 1e9,
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Elapsed < results[j].Elapsed })
	return results, nil
}

// Best is a convenience wrapper returning only the winning configuration.
func Best(run Runner, kind tiling.Kind, tuneSteps, repeats, points int, cands []tiling.Config) (tiling.Config, error) {
	res, err := Tune(run, kind, tuneSteps, repeats, points, cands)
	if err != nil {
		return tiling.Config{}, err
	}
	return res[0].Cfg, nil
}
