// Package wavesim is the public API of this repository: finite-difference
// wave propagators (isotropic acoustic, anisotropic acoustic/TTI, isotropic
// elastic) with sparse off-the-grid sources and receivers, runnable under
// either spatially-blocked execution or wave-front temporal blocking (WTB)
// enabled by the sparse-operator precomputation scheme of Bisbas et al.,
// "Temporal blocking of finite-difference stencil operators with sparse
// 'off-the-grid' sources" (IPDPS 2021).
//
// A minimal forward model:
//
//	sim, err := wavesim.New(wavesim.Options{
//	    Physics:    wavesim.Acoustic,
//	    SpaceOrder: 8,
//	    Shape:      [3]int{128, 128, 128},
//	    Spacing:    [3]float64{10, 10, 10},
//	    NBL:        10,
//	    TMax:       0.3,
//	    Vp:         wavesim.Layered(1280, 1500, 2500, 3500),
//	    Sources:    []wavesim.Coord{{640, 640, 200}},
//	    Receivers:  wavesim.LineCoords(64, wavesim.Coord{200, 640, 150}, wavesim.Coord{1080, 640, 150}),
//	})
//	res, err := sim.Run(wavesim.WTB{TimeTile: 16, TileX: 32, TileY: 32, BlockX: 8, BlockY: 8})
//	// res.Receivers holds the shot record; res.GPointsPerSec the throughput.
package wavesim

import (
	"fmt"
	"time"

	"wavetile/internal/model"
	"wavetile/internal/sparse"
	"wavetile/internal/tiling"
	"wavetile/internal/wave"
)

// Physics selects the wave equation (paper §III).
type Physics int

// The three propagators evaluated in the paper.
const (
	Acoustic Physics = iota // isotropic acoustic, O(2, so)
	TTI                     // anisotropic acoustic (tilted TI), O(2, so)
	Elastic                 // isotropic elastic velocity–stress, O(1, so)
)

func (p Physics) String() string {
	switch p {
	case Acoustic:
		return "acoustic"
	case TTI:
		return "tti"
	case Elastic:
		return "elastic"
	}
	return fmt.Sprintf("physics(%d)", int(p))
}

// Coord is a physical coordinate in metres.
type Coord = [3]float64

// FieldFunc evaluates a material property at a physical position (metres).
type FieldFunc = func(x, y, z float64) float64

// Homogeneous, Layered and Gradient are re-exported model presets.
func Homogeneous(v float64) FieldFunc { return model.Homogeneous(v) }

// Layered steps through vals at equal z intervals down to zmax.
func Layered(zmax float64, vals ...float64) FieldFunc { return model.Layered(zmax, vals...) }

// Gradient rises linearly from v0 at z=0 to v1 at zmax.
func Gradient(v0, v1, zmax float64) FieldFunc { return model.Gradient(v0, v1, zmax) }

// LineCoords places n points evenly from a to b (receiver cables).
func LineCoords(n int, a, b Coord) []Coord {
	pts := sparse.Line(n, sparse.Coord(a), sparse.Coord(b))
	out := make([]Coord, n)
	for i, c := range pts.Coords {
		out[i] = Coord(c)
	}
	return out
}

// Options configures a simulation.
type Options struct {
	Physics    Physics
	SpaceOrder int        // even, ≥ 2; the paper evaluates 4, 8, 12
	Shape      [3]int     // grid points (absorbing layers included)
	Spacing    [3]float64 // metres
	NBL        int        // absorbing boundary width in points

	// Time axis: TMax seconds simulated with a CFL-stable dt (computed from
	// the model's vmax); Steps, when > 0, overrides the step count and the
	// time axis becomes Steps·dt. DtOverride, when > 0, forces the timestep
	// (it must not exceed the CFL bound) — multi-model workflows such as
	// RTM need one shared time axis across models of different vmax.
	TMax       float64
	Steps      int
	DtOverride float64

	// Material property fields. Vp is required; Vs/Rho default to Vp/2 and
	// 1800 kg/m³ (Elastic), Epsilon/Delta/Theta/Phi default to mild
	// anisotropy (TTI) when nil.
	Vp, Vs, Rho                FieldFunc
	Epsilon, Delta, Theta, Phi FieldFunc

	// Sources and receivers at off-the-grid positions. SourceF0 is the
	// Ricker peak frequency (Hz; default 10) and SourceAmp the amplitude
	// (default 1). SourceWavelets, when non-nil, overrides the generated
	// Ricker series (one per source).
	Sources        []Coord
	Receivers      []Coord
	SourceF0       float64
	SourceAmp      float64
	SourceWavelets [][]float32
	// SincSources selects Kaiser-windowed sinc source injection (8³-point
	// supports, Hicks 2002) instead of trilinear. Sources must then sit at
	// least 4 grid points inside the domain.
	SincSources bool

	// KernelVariant pins a generated stencil kernel variant
	// (wave.KernelBase, wave.KernelY2, or wave.KernelGeneric for the
	// radius-generic reference path). Empty selects the default: the base
	// generated kernel when one exists for the space order, else the
	// observable generic fallback. An unknown variant is an
	// ErrInvalidOptions from New.
	KernelVariant string

	// Observe collects a per-phase wall-time breakdown and counters during
	// Run, returned in Result.Phases / Result.Counters. It costs a few
	// clock readings per parallel block (typically 1–3% of the run); when
	// false (the default) the instrumentation reduces to one atomic load
	// per Step. If a process-global obs registry is already installed
	// (e.g. by a -debug-addr CLI flag), Run reports through it regardless
	// of this flag.
	Observe bool
}

// Simulation is a configured propagator ready to run under any schedule.
type Simulation struct {
	opts Options
	geom model.Geometry
	prop tiling.Propagator
	ops  *wave.SparseOps

	acoustic *wave.Acoustic
	tti      *wave.TTI
	elastic  *wave.Elastic

	// workers caps the WTBPipelined drain's worker count for this
	// simulation (0 = all of par.Workers). Survey lanes running K shots
	// concurrently set it to Workers/K so the lanes partition the machine;
	// results are bitwise identical for any value. The spatial and WTB
	// schedules parallelize through the shared par pool, whose dynamic
	// chunk claiming balances concurrent lanes without an explicit cap.
	workers int
}

// Spatial is the baseline schedule: per-timestep parallel space blocking,
// with the sparse operators either fused (precomputed scheme) or executed
// as the unfused off-the-grid loops of the paper's Listing 1.
type Spatial struct {
	BlockX, BlockY int
	Unfused        bool // run the Listing-1 baseline sparse operators
}

// WTB is the wave-front temporal blocking schedule (always fused).
type WTB struct {
	TimeTile       int // timesteps per tile
	TileX, TileY   int
	BlockX, BlockY int
}

// WTBPipelined is WTB with each time tile's task graph drained by several
// workers: space-time tiles whose predecessors have completed run
// concurrently, with no barrier between wave-front levels. WTB drains the
// same graph on one goroutine, in the paper's sequential tile order, so the
// results are bitwise identical and on one worker the two coincide.
type WTBPipelined WTB

// Schedule is implemented by Spatial, WTB and WTBPipelined.
type Schedule interface{ schedule() string }

func (Spatial) schedule() string      { return "spatial" }
func (WTB) schedule() string          { return "wtb" }
func (WTBPipelined) schedule() string { return "wtb-pipelined" }

// Result summarizes one run.
type Result struct {
	Schedule string
	// Kernel is the stencil kernel the run dispatched to, as
	// "physics/rN/variant" (variant "generic" = the radius-generic slow
	// path — at paper orders that means a kernel-dispatch bug).
	Kernel        string
	Elapsed       time.Duration
	Points        int64   // grid points × timesteps
	GPointsPerSec float64 // points/s / 1e9 (the paper's throughput metric)
	// Receivers[t][r] is the shot record (time index t+1), nil without
	// receivers.
	Receivers [][]float32

	// Phases breaks Elapsed down by work category when observability was
	// on for the run (Options.Observe or a globally installed registry):
	// "stencil" (grid update), "inject" (fused source injection), "sample"
	// (fused receiver sampling), "sparse" (unfused Listing-1 operators)
	// and "overhead" (schedule bookkeeping and fork/join — the residual,
	// so the phases sum to Elapsed). Nil when observability was off.
	Phases map[string]time.Duration
	// Counters holds the run's counter deltas: "steps" (Step invocations),
	// "points", and under WTB and WTBPipelined alike "wtb_time_tiles",
	// "sched_tasks" and "sched_tasks_empty" (space-time tiles executed and
	// skipped as outside the domain). Nil when observability was off.
	Counters map[string]int64

	// sched is the schedule value the run executed, kept so Report can
	// recover the WTB tile configuration for roofline attribution.
	sched Schedule
}

// newResult assembles a Result with a well-defined throughput: runs with
// zero elapsed time or zero points report 0 GPts/s rather than NaN/Inf.
func newResult(schedule string, elapsed time.Duration, points int64) *Result {
	res := &Result{Schedule: schedule, Elapsed: elapsed, Points: points}
	if elapsed > 0 && points > 0 {
		res.GPointsPerSec = float64(points) / elapsed.Seconds() / 1e9
	}
	return res
}
