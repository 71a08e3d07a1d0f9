package bench

import (
	"fmt"
	"time"

	"wavetile/internal/autotune"
	"wavetile/internal/cachesim"
	"wavetile/internal/model"
	"wavetile/internal/roofline"
	"wavetile/internal/tiling"
	"wavetile/internal/trace"
)

// ---------------------------------------------------------------------------
// Wall-clock measurement (host)

// timeSchedule measures one schedule run (best of `repeats`).
func timeSchedule(p *Problem, run func() error, repeats int) (time.Duration, error) {
	best := time.Duration(0)
	for i := 0; i < repeats; i++ {
		p.Reset()
		start := time.Now()
		if err := run(); err != nil {
			return 0, err
		}
		el := time.Since(start)
		if best == 0 || el < best {
			best = el
		}
	}
	return best, nil
}

// gpts converts a duration into GPoints/s.
func gpts(points, steps int, d time.Duration) float64 {
	return float64(points) * float64(steps) / d.Seconds() / 1e9
}

// MeasureSpatial times the spatially-blocked baseline. The paper's
// reference code runs the original, unfused off-the-grid operators
// (Listing 1) after each blocked timestep, so fused defaults to false in
// the figure harnesses.
func MeasureSpatial(p *Problem, blockX, blockY, repeats int, fused bool) (time.Duration, error) {
	return timeSchedule(p, func() error {
		tiling.RunSpatial(p.Prop, blockX, blockY, fused)
		return nil
	}, repeats)
}

// MeasureWTB times one WTB configuration.
func MeasureWTB(p *Problem, cfg tiling.Config, repeats int) (time.Duration, error) {
	return timeSchedule(p, func() error {
		return tiling.RunWTB(p.Prop, cfg)
	}, repeats)
}

// MeasurePipelined times one WTB configuration under the several-worker
// graph drain (tiling.RunWTBPipelined) — same tile shapes, no per-level
// barrier.
func MeasurePipelined(p *Problem, cfg tiling.Config, repeats int) (time.Duration, error) {
	return timeSchedule(p, func() error {
		return tiling.RunWTBPipelined(p.Prop, cfg)
	}, repeats)
}

// TuneWTB autotunes the WTB parameters on the real propagator over a
// truncated time axis and returns the winning configuration with its
// measured results (Table I procedure), sweeping the given schedule kind
// (tiling.WTB or tiling.WTBPipelined) over the same grid.
func TuneWTB(spec Spec, kind tiling.Kind, tuneSteps, repeats int, tts []int) ([]autotune.Result, error) {
	built, err := Spec{
		Model: spec.Model, SO: spec.SO, N: spec.N, NBL: spec.NBL,
		Steps: tuneSteps, NSrc: spec.NSrc, SrcLayout: spec.SrcLayout, NRec: spec.NRec,
	}.Build()
	if err != nil {
		return nil, err
	}
	cands := autotune.Candidates(built.Geom.Nx, built.Geom.Ny, built.Prop.MinTile(), tts)
	runner := func(nt int) (tiling.Propagator, error) {
		built.Reset()
		return built.Prop, nil
	}
	return autotune.Tune(runner, kind, tuneSteps, repeats, built.PointsPerStep, cands)
}

// TuneKernels sweeps the generated kernel variants (base, y2, …) of one
// spec under the spatially-blocked schedule and returns results sorted
// fastest-first. An error is returned when the spec's radius only has the
// generic fallback — the condition the kernel generator exists to prevent
// at the paper's space orders.
func TuneKernels(spec Spec, tuneSteps, repeats int) ([]autotune.KernelResult, error) {
	built, err := Spec{
		Model: spec.Model, SO: spec.SO, N: spec.N, NBL: spec.NBL,
		Steps: tuneSteps, NSrc: spec.NSrc, SrcLayout: spec.SrcLayout, NRec: spec.NRec,
	}.Build()
	if err != nil {
		return nil, err
	}
	runner := func(nt int) (tiling.Propagator, error) {
		built.Reset()
		return built.Prop, nil
	}
	return autotune.TuneKernelVariants(runner, tiling.Spatial, tiling.Config{BlockX: 8, BlockY: 8},
		tuneSteps, repeats, built.PointsPerStep)
}

// WallRow holds one Figure-9-style wall-clock measurement. PipeGP and
// PipeSpeedup report the pipelined drain (RunWTBPipelined) at the same
// tuned tile shape as WTBGP, so the two columns isolate the scheduling
// change from the tile-shape choice.
type WallRow struct {
	Spec        Spec
	SpatialGP   float64
	WTBGP       float64
	PipeGP      float64
	Speedup     float64 // spatial / WTB
	PipeSpeedup float64 // spatial / pipelined
	Best        tiling.Config
}

// Fig9Wall measures the WTB-vs-spatial speedup on the host for every spec:
// a brief tile autotune, then timed runs of all three schedules (spatial,
// WTB, pipelined WTB).
func Fig9Wall(specs []Spec, tuneSteps, repeats int, tts []int) ([]WallRow, error) {
	var rows []WallRow
	for _, s := range specs {
		tuned, err := TuneWTB(s, tiling.WTB, tuneSteps, 1, tts)
		if err != nil {
			return nil, err
		}
		best := tuned[0].Cfg
		p, err := s.Build()
		if err != nil {
			return nil, err
		}
		sp, err := MeasureSpatial(p, 8, 8, repeats, false)
		if err != nil {
			return nil, err
		}
		wt, err := MeasureWTB(p, best, repeats)
		if err != nil {
			return nil, err
		}
		pl, err := MeasurePipelined(p, best, repeats)
		if err != nil {
			return nil, err
		}
		rows = append(rows, WallRow{
			Spec:        s,
			SpatialGP:   gpts(p.PointsPerStep, p.Geom.Nt, sp),
			WTBGP:       gpts(p.PointsPerStep, p.Geom.Nt, wt),
			PipeGP:      gpts(p.PointsPerStep, p.Geom.Nt, pl),
			Speedup:     float64(sp) / float64(wt),
			PipeSpeedup: float64(sp) / float64(pl),
			Best:        best,
		})
	}
	return rows, nil
}

// ---------------------------------------------------------------------------
// Cache-simulated prediction (Broadwell / Skylake)

// SimOptions size the trace runs.
type SimOptions struct {
	// TraceN is the trace grid edge (default 160). The default is chosen so
	// that every propagator's working set exceeds the largest LLC modelled
	// (acoustic: 5 arrays · 160³ · 4 B ≈ 82 MB > 50 MB), the regime the
	// paper's 512³ grids operate in; traffic *ratios* between schedules are
	// grid-size invariant in that regime, so the full cache hierarchy is
	// simulated unscaled.
	TraceN  int
	TraceNt int // traced timesteps (default 6)
	// RefN, when > 0, switches to scaled-cache mode: capacities shrink by
	// the row-count ratio (TraceN/RefN)². Unscaled (RefN = 0) is the
	// recommended mode; scaling exists for quick, small-grid smoke runs.
	RefN int
}

func (o *SimOptions) defaults() {
	if o.TraceN == 0 {
		o.TraceN = 160
	}
	if o.TraceNt == 0 {
		o.TraceNt = 6
	}
}

// traceShape computes the trace-grid shape and source supports of a spec
// once; building the (heavy) full Problem per traced candidate would waste
// O(N³) field construction on data that never changes.
func traceShape(s Spec, o SimOptions) (trace.Shape, error) {
	spec := s
	spec.N = o.TraceN
	spec.NBL = 4
	spec.Steps = o.TraceNt
	spec.NRec = 1
	g := model.Geometry{
		Nx: o.TraceN, Ny: o.TraceN, Nz: o.TraceN,
		Hx: spec.spacing(), Hy: spec.spacing(), Hz: spec.spacing(),
		NBL: spec.NBL,
	}
	src := spec.sources(g)
	sup, err := src.Supports(g.Nx, g.Ny, g.Nz, g.Hx, g.Hy, g.Hz)
	if err != nil {
		return trace.Shape{}, err
	}
	return trace.Shape{
		Nx: o.TraceN, Ny: o.TraceN, Nz: o.TraceN,
		SO: s.SO, Nt: o.TraceNt, SrcSupports: sup,
	}, nil
}

// traceProp builds the trace propagator for a precomputed shape.
func traceProp(m string, sh trace.Shape, sink trace.Sink) (tiling.Propagator, error) {
	switch m {
	case "acoustic":
		return trace.NewAcoustic(sh, sink), nil
	case "tti":
		return trace.NewTTI(sh, sink), nil
	case "elastic":
		return trace.NewElastic(sh, sink), nil
	}
	return nil, fmt.Errorf("bench: unknown model %q", m)
}

// simCandidates are the WTB shapes tried per machine in simulation; tile
// sizes are relative to the trace grid.
func simCandidates(traceN, minTile int) []tiling.Config {
	var out []tiling.Config
	for _, tt := range []int{4, 8} {
		for _, tx := range []int{16, 32, 64} {
			if tx < minTile || tx > traceN {
				continue
			}
			out = append(out, tiling.Config{TT: tt, TileX: tx, TileY: tx, BlockX: 8, BlockY: 8})
		}
	}
	return out
}

// SimRow is one Figure-9-style simulated prediction.
type SimRow struct {
	Spec     Spec
	Machine  string
	Spatial  roofline.Prediction
	WTB      roofline.Prediction
	Speedup  float64
	BestWTB  tiling.Config
	SpatialT cachesim.Traffic
	WTBT     cachesim.Traffic
}

// Fig9Sim predicts the WTB-vs-spatial speedup for every spec on the given
// machines by replaying both schedules' access traces through the machine's
// (working-set-scaled) cache hierarchy and applying the roofline model. WTB
// parameters are "autotuned" in simulation: every candidate is traced and
// the fastest predicted configuration wins, mirroring §IV-C.
func Fig9Sim(specs []Spec, machines []roofline.Machine, o SimOptions) ([]SimRow, error) {
	o.defaults()
	scale := cacheScale(o)
	var rows []SimRow
	for _, s := range specs {
		for _, m := range machines {
			cacheCfg := m.Cache.Scaled(scale)

			sh, err := traceShape(s, o)
			if err != nil {
				return nil, err
			}
			flops := float64(flopsPerPoint(s.Model, s.SO)) *
				float64(sh.Nx*sh.Ny*sh.Nz) * float64(sh.Nt)
			runTrace := func(run func(p tiling.Propagator) error) (cachesim.Traffic, error) {
				h := cachesim.New(cacheCfg)
				p, err := traceProp(s.Model, sh, h)
				if err != nil {
					return cachesim.Traffic{}, err
				}
				if err := run(p); err != nil {
					return cachesim.Traffic{}, err
				}
				return h.Snapshot(s.Name()), nil
			}

			spT, err := runTrace(func(p tiling.Propagator) error {
				tiling.RunSpatial(p, 0, 0, false) // unfused Listing-1 baseline
				return nil
			})
			if err != nil {
				return nil, err
			}
			points := float64(o.TraceN*o.TraceN*o.TraceN) * float64(o.TraceNt)
			spPred := roofline.Predict(m, flops, points, spT)

			var bestPred roofline.Prediction
			var bestCfg tiling.Config
			var bestT cachesim.Traffic
			minTile := 2 * (s.SO / 2)
			for _, cfg := range simCandidates(o.TraceN, minTile) {
				cfg := cfg
				wtT, err := runTrace(func(p tiling.Propagator) error {
					return tiling.RunWTB(p, cfg)
				})
				if err != nil {
					return nil, err
				}
				pred := roofline.Predict(m, flops, points, wtT)
				if bestPred.Seconds == 0 || pred.Seconds < bestPred.Seconds {
					bestPred, bestCfg, bestT = pred, cfg, wtT
				}
			}
			rows = append(rows, SimRow{
				Spec: s, Machine: m.Name,
				Spatial: spPred, WTB: bestPred,
				Speedup: spPred.Seconds / bestPred.Seconds,
				BestWTB: bestCfg, SpatialT: spT, WTBT: bestT,
			})
		}
	}
	return rows, nil
}

// cacheScale maps the trace grid onto the reference machine's caches. The
// working set of one wavefront tile-step is (tile_x·tile_y)·nz·arrays·4B:
// tile areas and nz shrink with the trace grid, but the stencil radius —
// and with it the halo geometry that decides how much of a tile is reusable
// — does not. Scaling capacity by the row-count ratio (area, s²) rather
// than the volume ratio (s³) keeps the rows-per-cache measure, and thereby
// the fits/doesn't-fit structure of both schedules, aligned with the
// full-size machine.
func cacheScale(o SimOptions) float64 {
	if o.RefN <= 0 {
		return 1
	}
	s := float64(o.TraceN) / float64(o.RefN)
	return s * s
}

// flopsPerPoint mirrors the propagators' operation counts (wave.*
// FlopsPerPoint) without instantiating full wavefields.
func flopsPerPoint(model string, so int) int {
	r := so / 2
	switch model {
	case "acoustic":
		return 1 + 12*r + 7
	case "tti":
		pure := 3 * (4*r + 1)
		cross := 3 * (6*r*r + 1)
		return 2*(pure+cross) + 30
	case "elastic":
		return 54*r + 33
	}
	return 0
}
