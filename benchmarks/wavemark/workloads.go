package main

import (
	"fmt"
	"runtime"

	"wavetile/internal/serve"
	"wavetile/internal/tiling"
	"wavetile/wavesim"
)

// problem is the discretized wave problem of a workload. Everything here is
// frozen: the benchmark never tunes at run time, and -seed moves only the
// off-the-grid coordinates (and the job priorities), never a shape.
type problem struct {
	Physics   string `json:"physics"` // "acoustic", "tti" or "elastic"
	SO        int    `json:"space_order"`
	N         int    `json:"n"` // cubic grid edge
	NBL       int    `json:"nbl"`
	Steps     int    `json:"steps"`
	Sources   int    `json:"sources"` // per shot
	Receivers int    `json:"receivers"`
	RecPlane  bool   `json:"receivers_in_plane,omitempty"` // scattered in a z-plane, else on a line
	Sinc      bool   `json:"sinc_sources,omitempty"`       // Kaiser-sinc 8³ supports, sources in a volume
}

// spacing is the grid spacing in metres of every workload.
const spacing = 10.0

// layers are the velocities (m/s) of the layered earth model every workload
// uses, top to bottom; vmax bounds the CFL timestep of the layer probes.
var layers = []float64{1500, 2500, 3500}

const vmax = 3500.0

// points is the number of grid points of the problem.
func (p problem) points() int64 { return int64(p.N) * int64(p.N) * int64(p.N) }

// zmax is the physical depth of the grid, the extent of the layered model.
func (p problem) zmax() float64 { return float64(p.N-1) * spacing }

func (p problem) physics() wavesim.Physics {
	switch p.Physics {
	case "tti":
		return wavesim.TTI
	case "elastic":
		return wavesim.Elastic
	}
	return wavesim.Acoustic
}

// schedule is a frozen schedule: the constants chosen once by the autotune
// sweep recorded in benchmarks/README.md.
type schedule struct {
	Kind   string `json:"kind"` // "spatial", "wtb" or "wtb-pipelined"
	TT     int    `json:"time_tile,omitempty"`
	TileX  int    `json:"tile_x,omitempty"`
	TileY  int    `json:"tile_y,omitempty"`
	BlockX int    `json:"block_x"`
	BlockY int    `json:"block_y"`
}

func (s schedule) String() string {
	if s.Kind == "spatial" {
		return fmt.Sprintf("spatial block=%dx%d", s.BlockX, s.BlockY)
	}
	return fmt.Sprintf("%s TT=%d tile=%dx%d block=%dx%d", s.Kind, s.TT, s.TileX, s.TileY, s.BlockX, s.BlockY)
}

// wavesim lowers the constants to the public schedule type.
func (s schedule) wavesim() wavesim.Schedule {
	w := wavesim.WTB{TimeTile: s.TT, TileX: s.TileX, TileY: s.TileY, BlockX: s.BlockX, BlockY: s.BlockY}
	switch s.Kind {
	case "spatial":
		return wavesim.Spatial{BlockX: s.BlockX, BlockY: s.BlockY}
	case "wtb-pipelined":
		return wavesim.WTBPipelined(w)
	}
	return w
}

// config lowers the constants to the tiling layer's own parameters.
func (s schedule) config() tiling.Config {
	return tiling.Config{TT: s.TT, TileX: s.TileX, TileY: s.TileY, BlockX: s.BlockX, BlockY: s.BlockY}
}

// spec lowers the constants to the service's wire format.
func (s schedule) spec() serve.ScheduleSpec {
	return serve.ScheduleSpec{Kind: s.Kind, TimeTile: s.TT, TileX: s.TileX, TileY: s.TileY, BlockX: s.BlockX, BlockY: s.BlockY}
}

// run drives p under the schedule through the tiling layer directly.
func (s schedule) run(p tiling.Propagator) error {
	switch s.Kind {
	case "spatial":
		tiling.RunSpatial(p, s.BlockX, s.BlockY, true)
		return nil
	case "wtb-pipelined":
		return tiling.RunWTBPipelined(p, s.config())
	}
	return tiling.RunWTB(p, s.config())
}

// Workload kinds: what one operation is and which public entry point runs it.
const (
	kindShot   = "shot"   // one wavesim.Simulation.Run
	kindSurvey = "survey" // one wavesim.Survey.Run over Shots shots
	kindServe  = "serve"  // closed-loop HTTP clients against internal/serve
)

// workload is one row of the benchmark's workload table.
type workload struct {
	Name    string   `json:"name"`
	Why     string   `json:"why"`
	Kind    string   `json:"kind"`
	Problem problem  `json:"problem"`
	Sched   schedule `json:"schedule"`
	// Ref is the schedule the verification reference of a shot or survey
	// workload runs under; records must be bitwise equal across the two. A
	// serve workload's reference is a direct run under its own schedule.
	Ref schedule `json:"reference_schedule"`

	Shots int `json:"shots,omitempty"` // survey: shots per survey; serve: shots per job
	Lanes int `json:"lanes,omitempty"` // survey: concurrent shots, capped at the worker count

	Jobs           int `json:"jobs_per_round,omitempty"` // serve: jobs of one closed-loop round
	Runners        int `json:"runners,omitempty"`        // serve: 0 = worker count
	Clients        int `json:"clients,omitempty"`        // serve: 0 = worker count; never above it
	CkptEveryTiles int `json:"checkpoint_every_tiles,omitempty"`
}

var spatial8 = schedule{Kind: "spatial", BlockX: 8, BlockY: 8}

// workloadTable returns the seven workloads at the given scale. "full" is
// what BENCHMARK.json measures; "tiny" shrinks every shape so the smoke test
// drives the same code in well under a second per workload.
func workloadTable(scale string) ([]workload, error) {
	acousticWTB := schedule{Kind: "wtb", TT: 8, TileX: 64, TileY: 64, BlockX: 16, BlockY: 16}
	ttiWTB := schedule{Kind: "wtb", TT: 4, TileX: 64, TileY: 64, BlockX: 8, BlockY: 8}
	small := schedule{Kind: "wtb", TT: 4, TileX: 32, TileY: 32, BlockX: 8, BlockY: 8}
	smallPipe := schedule{Kind: "wtb-pipelined", TT: 4, TileX: 32, TileY: 32, BlockX: 8, BlockY: 8}
	ckptPipe := schedule{Kind: "wtb-pipelined", TT: 8, TileX: 16, TileY: 16, BlockX: 8, BlockY: 16}

	acoustic := problem{Physics: "acoustic", SO: 4, N: 256, NBL: 10, Steps: 48, Sources: 1, Receivers: 64}
	table := []workload{
		{
			Name: "shot_acoustic_wtb", Kind: kindShot,
			Why:     "Paper headline: cheapest kernel, five 67 MB grids (6x the 54 MB L3), so tiling, sched, par and memory traffic do most of the work.",
			Problem: acoustic, Sched: acousticWTB, Ref: spatial8,
		},
		{
			Name: "shot_acoustic_spatial", Kind: kindShot,
			Why:     "Control that bypasses WTB on the identical problem: a tiling or sched change must not move it, a kernel or par change moves both.",
			Problem: acoustic, Sched: spatial8, Ref: acousticWTB,
		},
		{
			Name: "shot_tti_wtb", Kind: kindShot,
			Why:     "Compute-bound (about 234 flops per point): the wave kernels do nearly all the work and the schedule choice is invisible.",
			Problem: problem{Physics: "tti", SO: 4, N: 160, NBL: 10, Steps: 20, Sources: 1, Receivers: 64},
			Sched:   ttiWTB, Ref: spatial8,
		},
		{
			Name: "shot_dense_sinc", Kind: kindShot,
			Why:     "8192 sinc sources and 4096 receivers: core.DecomposeWavelets, BuildMasks and sparse.SincSupport dominate, set-up costs more than the run.",
			Problem: problem{Physics: "acoustic", SO: 4, N: 96, NBL: 10, Steps: 128, Sources: 8192, Receivers: 4096, RecPlane: true, Sinc: true},
			Sched:   small, Ref: spatial8,
		},
		{
			Name: "survey_many_small", Kind: kindSurvey,
			Why:     "512 tiny shots over one model: per-shot set-up, batch dispatch, grid.Pool recycling and wave.CloneShared are a large share, kernels are small.",
			Problem: problem{Physics: "acoustic", SO: 4, N: 48, NBL: 6, Steps: 12, Sources: 1, Receivers: 128, RecPlane: true},
			Sched:   smallPipe, Ref: spatial8, Shots: 512, Lanes: 2,
		},
		{
			Name: "serve_small_jobs", Kind: kindServe,
			Why:     "Closed loop of tiny jobs over real HTTP: spec decode and Build, queue, runner hand-off and NDJSON encoding dominate, kernels are a few ms per shot.",
			Problem: problem{Physics: "acoustic", SO: 4, N: 32, NBL: 4, Steps: 32, Sources: 1, Receivers: 1024, RecPlane: true},
			Sched:   small, Shots: 2, Jobs: 160,
		},
		{
			Name: "serve_ckpt_jobs", Kind: kindServe,
			Why:     "Elastic jobs with checkpoints written beside the streamed records, one runner and one job always queued: the only elastic end-to-end coverage.",
			Problem: problem{Physics: "elastic", SO: 4, N: 80, NBL: 10, Steps: 48, Sources: 1, Receivers: 64},
			Sched:   ckptPipe, Shots: 1, Jobs: 6, Runners: 1, Clients: 2, CkptEveryTiles: 2,
		},
	}
	switch scale {
	case "full":
	case "tiny":
		for i := range table {
			table[i] = tiny(table[i])
		}
	default:
		return nil, fmt.Errorf("unknown -scale %q (want full or tiny)", scale)
	}
	return table, nil
}

// tiny shrinks a workload for the smoke test, keeping its kind, physics,
// schedule kind and interpolation so every code path still runs.
func tiny(w workload) workload {
	p := &w.Problem
	p.N, p.NBL, p.Steps = 24, 4, 16
	p.Sources = min(p.Sources, 24)
	p.Receivers = min(p.Receivers, 16)
	for _, s := range []*schedule{&w.Sched, &w.Ref} {
		if s.Kind == "" {
			continue // a serve workload has no reference schedule
		}
		if s.Kind != "spatial" {
			s.TT, s.TileX, s.TileY = 4, 16, 16
		}
		s.BlockX, s.BlockY = 8, 8
	}
	w.Shots = min(w.Shots, 6)
	w.Jobs = min(w.Jobs, 4)
	return w
}

// workers is the parallel width of every run: GOMAXPROCS = par.Workers =
// min(nproc, 4). The cap keeps numbers from a many-core host comparable in
// kind with the reference host's, and no more client connections are opened
// than this.
func workers() int { return min(runtime.NumCPU(), 4) }

func findWorkload(table []workload, name string) (workload, bool) {
	for _, w := range table {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}
