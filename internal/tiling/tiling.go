// Package tiling is the schedule executor: one time-tile loop (Run) whose
// body is one of the two execution orders compared in the paper:
//
//   - spatial cache blocking (the highly-optimized baseline, Fig. 4a): each
//     timestep updates the whole grid in parallel blocks, then applies the
//     sparse off-the-grid operators;
//   - wave-front temporal blocking, WTB (Listing 6, Figs. 7–8): the time
//     axis is split into tiles of depth TT; within a time tile, skewed
//     space tiles each carry their points through all TT timesteps while
//     they remain cache-resident. The space-time tiles of a time tile are
//     the tasks of an internal/sched dependency graph, drained either
//     serially — exactly Listing 6's lexicographic order — or by several
//     workers with no barrier between wavefronts. Every wavefront update is
//     parallelized over block_x × block_y sub-blocks.
//
// The executor drives a Propagator through its Step method; the propagator
// owns the per-point kernels, clamps regions per field phase (multi-grid
// wavefronts, Fig. 8b), and applies the fused sparse operators of
// internal/core. Because every schedule invokes the exact same kernel code
// on the exact same points (merely reordered), their results are bitwise
// identical — the property the correctness tests assert.
package tiling

import (
	"fmt"
	"sync"
	"time"

	"wavetile/internal/grid"
	"wavetile/internal/obs"
	"wavetile/internal/par"
	"wavetile/internal/sched"
)

// Propagator is a time-stepping wave kernel that the schedules can drive.
type Propagator interface {
	// GridShape returns the extents of the tiled (x, y) dimensions.
	GridShape() (nx, ny int)
	// Steps returns the number of timesteps nt.
	Steps() int
	// TimeSkew returns the wavefront shift per timestep inside a tile: the
	// stencil radius for single-phase propagators, and the accumulated
	// per-phase radii for multi-grid staggered systems (Fig. 8b).
	TimeSkew() int
	// MaxPhaseOffset returns how far (≥ 0) the laggard field phase trails
	// the base region inside one timestep; 0 for single-phase propagators.
	MaxPhaseOffset() int
	// MinTile returns the smallest legal tile edge (dependency margin).
	MinTile() int
	// SetBlocks fixes the intra-region parallel block shape.
	SetBlocks(bx, by int)
	// SetFused fixes which sparse-operator path the Step calls that follow
	// use, and so where the receiver record is gathered from. The executor
	// calls it (and SetBlocks) once per run or range, before the first Step
	// and never while Steps are in flight — concurrent graph tasks only
	// read what it set.
	SetFused(fused bool)
	// Step advances the propagator from time index t to t+1 on the raw
	// (possibly out-of-domain; clamp per phase) region. With fused=true the
	// precomputed sparse operators are applied inside the region; with
	// fused=false the caller applies them globally via ApplySparse. fused
	// matches the preceding SetFused.
	Step(t int, raw grid.Region, fused bool)
	// ApplySparse applies the baseline (Listing 1) off-the-grid operators
	// for the step that computed time index t+1.
	ApplySparse(t int)
}

// Config are the WTB schedule parameters of the paper's Table I.
type Config struct {
	TT             int // time-tile depth (timesteps kept in cache)
	TileX, TileY   int // space-tile shape (wavefront extent per time level)
	BlockX, BlockY int // parallel sub-block shape inside a wavefront update

	// Workers caps the worker count of the WTBPipelined drain; 0 means
	// par.Workers. Survey drivers running K shots concurrently set it to
	// Workers/K so the K task graphs split the machine instead of
	// oversubscribing it. The Spatial and WTB kinds parallelize through the
	// shared par pool, whose dynamic chunk claiming load-balances
	// concurrent callers on its own, so they take no explicit cap. Results
	// are bitwise identical for any value (the worker-count invariance
	// internal/verify asserts).
	Workers int
}

func (c Config) String() string {
	return fmt.Sprintf("TT=%d tile=%dx%d block=%dx%d", c.TT, c.TileX, c.TileY, c.BlockX, c.BlockY)
}

// Validate checks the configuration against a propagator's dependency
// margins.
func (c Config) Validate(p Propagator) error {
	if c.TT < 1 {
		return fmt.Errorf("tiling: time tile depth %d < 1", c.TT)
	}
	if mt := p.MinTile(); c.TileX < mt || c.TileY < mt {
		return fmt.Errorf("tiling: tile %dx%d below dependency margin %d", c.TileX, c.TileY, mt)
	}
	return nil
}

// blockBufs recycles the per-step block lists of ForBlocksIndexed across
// calls. Every Step of every propagator splits its region here, so on a
// survey's steady state this pool is what keeps the schedule hot path
// allocation-free. Safe because the block slice is fully consumed
// (par.ForWorkers joins) before the buffer is returned.
var blockBufs = sync.Pool{New: func() any { return new([]grid.Region) }}

// ForBlocksIndexed splits reg into bx×by blocks and runs f on each in
// parallel, passing the index of the par worker that runs it so that
// instrumented propagators can attribute block work per worker.
// Propagators use it to parallelize one wavefront (or one baseline
// timestep) over sub-blocks, the analogue of the paper's OpenMP loops.
func ForBlocksIndexed(reg grid.Region, bx, by int, f func(worker int, b grid.Region)) {
	bp := blockBufs.Get().(*[]grid.Region)
	blocks := reg.AppendBlocks((*bp)[:0], bx, by)
	if len(blocks) == 1 {
		f(0, blocks[0])
	} else {
		par.ForWorkers(len(blocks), func(w, i int) { f(w, blocks[i]) })
	}
	*bp = blocks[:0]
	blockBufs.Put(bp)
}

// Kind names the per-time-tile body Run executes.
type Kind uint8

const (
	// Spatial is the spatially-blocked baseline with fused sparse
	// operators: every timestep is one whole-domain Step. Only BlockX and
	// BlockY of the Config apply. It never touches TileGrid or
	// internal/sched, because it is the reference the verification oracle
	// compares the tiled schedules against.
	Spatial Kind = iota
	// SpatialUnfused is Spatial with the paper's Listing-1 sparse operators
	// applied after each step instead of the fused ones inside it.
	SpatialUnfused
	// WTB is wave-front temporal blocking with each time tile's graph
	// drained on the calling goroutine, which visits the space tiles in
	// Listing 6's lexicographic order, each carried through all its local
	// steps. Sparse operators are always fused under WTB (that is the point
	// of the paper).
	WTB
	// WTBPipelined is WTB with each time tile's graph drained by
	// Config.Workers workers: tiles whose predecessors have completed run
	// concurrently, with no barrier between the wavefronts of a time tile.
	WTBPipelined
)

// FaultSkewDelta perturbs the wavefront skew of the tiled kinds. It exists
// solely for the differential-verification harness (internal/verify), which
// sets it to −1 to prove the schedule-equivalence oracle detects the
// dependency violations an off-by-one in the wavefront offset causes;
// production code must leave it zero. It must not be mutated while a
// schedule is running.
var FaultSkewDelta int

// Run executes timesteps [tFrom, tTo) of p under the given schedule kind.
// It is the one place that steps a propagator through time: whole runs,
// checkpointed chunks and the per-exchange tiles of internal/dist all come
// through here. Chunking a run at multiples of the schedule's time-tile
// depth (cfg.TT; 1 for the spatial kinds) reproduces the uninterrupted
// tile sequence exactly, so chunked and unchunked runs are bitwise
// identical.
//
// Time tiles are sequential: one tile's graph drains before the next is
// built. Within a tiled kind the graph orders exactly the pairs of tiles
// whose footprints overlap (see internal/sched for the derivation from
// TimeSkew and MaxPhaseOffset) and every grid point is written by exactly
// one task per time level, so the result does not depend on the worker
// count.
//
// onTask, when non-nil, runs on the executing worker immediately after each
// non-empty task (bx, by, k) of a tiled kind completes — internal/dist uses
// it to start packing halo planes the moment the last boundary tile of a
// time tile finishes. It must be safe for concurrent calls on distinct
// tasks and must not block on work that depends on tasks of the same time
// tile.
func Run(p Propagator, kind Kind, cfg Config, tFrom, tTo int, onTask func(bx, by, k int)) error {
	tiled := kind == WTB || kind == WTBPipelined
	fused := kind != SpatialUnfused
	depth, workers := 1, 1
	if tiled {
		if err := cfg.Validate(p); err != nil {
			return err
		}
		depth = cfg.TT
		if kind == WTBPipelined {
			workers = cfg.Workers
			if workers <= 0 {
				workers = par.Workers
			}
		}
	}
	p.SetBlocks(cfg.BlockX, cfg.BlockY)
	p.SetFused(fused)

	// The raw spatial region extends past the domain by the propagator's
	// phase offset so that laggard phases (which shift their region back
	// before clamping) still cover the full domain.
	nx, ny := p.GridShape()
	off := p.MaxPhaseOffset()
	full := grid.Region{X0: 0, X1: nx + off, Y0: 0, Y1: ny + off}
	nt := p.Steps()

	// Observability is resolved once per range; with it off (r == nil) the
	// loop takes no clock readings.
	r := obs.Active()
	sp := r.Spans()
	var cTimeTiles *obs.Counter
	if r != nil && tiled {
		cTimeTiles = r.Counter("wtb_time_tiles")
	}

	for t0 := tFrom; t0 < tTo; t0 += depth {
		tt := min(depth, tTo-t0)
		var start time.Time
		var phasesBefore [obs.NumPhases]int64
		if sp.On() {
			start = time.Now()
			phasesBefore = r.PhaseWalls()
		}
		if tiled {
			if cTimeTiles != nil {
				cTimeTiles.Add(1)
			}
			drainTimeTile(p, cfg, t0, tt, workers, sp, onTask)
		} else {
			p.Step(t0, full, fused)
			if !fused {
				var sparseStart time.Time
				if r != nil {
					sparseStart = time.Now()
				}
				p.ApplySparse(t0)
				if r != nil {
					r.AddPhase(obs.PhaseSparse, time.Since(sparseStart))
				}
			}
		}
		if sp.On() {
			name, cat := fmt.Sprintf("step %d", t0), "spatial"
			args := map[string]any{"t": t0}
			if tiled {
				name, cat = fmt.Sprintf("time-tile %d..%d", t0, t0+tt), "wtb"
				args = map[string]any{"t0": t0, "t1": t0 + tt}
			}
			after := r.PhaseWalls()
			for ph := obs.Phase(0); ph < obs.NumPhases; ph++ {
				if d := after[ph] - phasesBefore[ph]; d > 0 {
					args[ph.String()+"_ms"] = float64(d) / 1e6
				}
			}
			sp.Complete(name, cat, 0, start, time.Since(start), args)
		}
		if r != nil {
			r.StepsDone(t0+tt, nt)
		}
	}
	return nil
}

// drainTimeTile runs the tt local steps of the time tile starting at t0 as
// one dependency graph. Tile and skipped-tile counts are the graph's own
// sched_tasks / sched_tasks_empty counters; each executed task leaves one
// span carrying the id of the worker that ran it, so pipeline gaps and
// steal imbalance are visible per lane in the trace viewer.
func drainTimeTile(p Propagator, cfg Config, t0, tt, workers int, sp obs.SpanRecorder, onTask func(bx, by, k int)) {
	tg := NewTileGrid(p, cfg, tt)
	g := sched.NewTileGraph(tg.NBX, tg.NBY, tt, p.MaxPhaseOffset() > 0, tg.Empty)
	g.Run(workers, func(worker, bx, by, k int) {
		var taskStart time.Time
		if sp.On() {
			taskStart = time.Now()
		}
		p.Step(t0+k, tg.Raw(bx, by, k), true)
		if sp.On() {
			sp.Complete(fmt.Sprintf("task %d,%d k=%d", bx, by, k), "sched", worker,
				taskStart, time.Since(taskStart),
				map[string]any{"bx": bx, "by": by, "k": k, "t": t0 + k})
		}
		if onTask != nil {
			onTask(bx, by, k)
		}
	})
}

// RunSpatial executes the whole time axis under the spatially-blocked
// baseline, with the sparse operators fused (precomputed scheme) or unfused
// (the paper's Listing 1) according to fused.
func RunSpatial(p Propagator, blockX, blockY int, fused bool) {
	kind := Spatial
	if !fused {
		kind = SpatialUnfused
	}
	// The spatial kinds validate nothing, so Run cannot fail here.
	_ = Run(p, kind, Config{BlockX: blockX, BlockY: blockY}, 0, p.Steps(), nil)
}

// RunWTB executes the whole time axis under WTB.
func RunWTB(p Propagator, cfg Config) error {
	return Run(p, WTB, cfg, 0, p.Steps(), nil)
}

// RunWTBPipelined executes the whole time axis under WTBPipelined.
func RunWTBPipelined(p Propagator, cfg Config) error {
	return Run(p, WTBPipelined, cfg, 0, p.Steps(), nil)
}
