package wavesim

import (
	"context"
	"fmt"
	"math"
	"time"

	"wavetile/internal/grid"
	"wavetile/internal/model"
	"wavetile/internal/obs"
	"wavetile/internal/sparse"
	"wavetile/internal/tiling"
	"wavetile/internal/wave"
	"wavetile/internal/wavelet"
)

// New validates the options, builds the earth model, computes a CFL-stable
// time axis, precomputes the sparse-operator structures and returns a
// runnable Simulation. Invalid configurations — including the degenerate
// corners a generator can produce (0 or negative timesteps, NaN spacing or
// coordinates, points on or beyond the grid boundary) — return errors tagged
// ErrInvalidOptions or ErrPlacement rather than panicking.
func New(o Options) (*Simulation, error) {
	if o.SpaceOrder <= 0 || o.SpaceOrder%2 != 0 {
		return nil, fmt.Errorf("%w: space order must be positive and even, got %d", ErrInvalidOptions, o.SpaceOrder)
	}
	for d := 0; d < 3; d++ {
		if o.Shape[d] < 2*o.SpaceOrder {
			return nil, fmt.Errorf("%w: shape[%d]=%d too small for space order %d", ErrInvalidOptions, d, o.Shape[d], o.SpaceOrder)
		}
		if !(o.Spacing[d] > 0) || math.IsInf(o.Spacing[d], 0) { // catches NaN too
			return nil, fmt.Errorf("%w: spacing[%d]=%g must be positive and finite", ErrInvalidOptions, d, o.Spacing[d])
		}
	}
	if o.Vp == nil {
		return nil, fmt.Errorf("%w: Vp field is required", ErrInvalidOptions)
	}
	if o.Steps < 0 {
		return nil, fmt.Errorf("%w: Steps=%d must not be negative", ErrInvalidOptions, o.Steps)
	}
	if o.Steps == 0 && (!(o.TMax > 0) || math.IsInf(o.TMax, 0)) {
		return nil, fmt.Errorf("%w: set Steps > 0 or a positive finite TMax (got Steps=%d TMax=%g)",
			ErrInvalidOptions, o.Steps, o.TMax)
	}
	if math.IsNaN(o.DtOverride) || math.IsInf(o.DtOverride, 0) || o.DtOverride < 0 {
		return nil, fmt.Errorf("%w: DtOverride=%g must be a non-negative finite value", ErrInvalidOptions, o.DtOverride)
	}
	if err := checkCoords("source", o.Sources, o.Shape, o.Spacing, o.SincSources); err != nil {
		return nil, err
	}
	if err := checkCoords("receiver", o.Receivers, o.Shape, o.Spacing, false); err != nil {
		return nil, err
	}
	if o.SourceF0 == 0 {
		o.SourceF0 = 10
	}
	if o.SourceAmp == 0 {
		o.SourceAmp = 1
	}

	geom := model.Geometry{
		Nx: o.Shape[0], Ny: o.Shape[1], Nz: o.Shape[2],
		Hx: o.Spacing[0], Hy: o.Spacing[1], Hz: o.Spacing[2],
		NBL: o.NBL,
	}
	halo := o.SpaceOrder / 2
	s := &Simulation{opts: o}

	// Probe vmax for the CFL bound (fields re-sample it during build).
	vmax := probeMax(geom, o.Vp)
	if !(vmax > 0) || math.IsInf(vmax, 0) {
		return nil, fmt.Errorf("%w: Vp field probes to vmax=%g; need a positive finite velocity", ErrInvalidOptions, vmax)
	}

	var dt float64
	switch o.Physics {
	case Acoustic:
		dt = geom.CriticalDtAcoustic(o.SpaceOrder, vmax, model.DefaultCFL)
	case TTI:
		epsMax := 0.2
		if o.Epsilon != nil {
			epsMax = probeMax(geom, o.Epsilon)
		}
		dt = geom.CriticalDtTTI(o.SpaceOrder, vmax, epsMax, model.DefaultCFL)
	case Elastic:
		dt = geom.CriticalDtElastic(o.SpaceOrder, vmax, model.DefaultCFL)
	default:
		return nil, fmt.Errorf("%w: unknown physics %v", ErrInvalidOptions, o.Physics)
	}
	if o.DtOverride > 0 {
		if o.DtOverride > dt {
			return nil, fmt.Errorf("%w: DtOverride %g exceeds the CFL bound %g", ErrInvalidOptions, o.DtOverride, dt)
		}
		dt = o.DtOverride
	}
	if o.Steps > 0 {
		geom.Dt = dt
		geom.Nt = o.Steps
	} else {
		geom.SetTime(o.TMax, dt)
	}
	if geom.Nt < 1 {
		return nil, fmt.Errorf("%w: time axis resolves to %d timesteps", ErrInvalidOptions, geom.Nt)
	}
	s.geom = geom

	src := &sparse.Points{}
	for _, c := range o.Sources {
		src.Coords = append(src.Coords, sparse.Coord(c))
	}
	rec := &sparse.Points{}
	for _, c := range o.Receivers {
		rec.Coords = append(rec.Coords, sparse.Coord(c))
	}
	wavs := o.SourceWavelets
	if wavs == nil {
		wavs = make([][]float32, src.N())
		for i := range wavs {
			wavs[i] = wavelet.RickerSeries(o.SourceF0, geom.Nt, geom.Dt, o.SourceAmp)
		}
	} else if len(wavs) != src.N() {
		return nil, fmt.Errorf("%w: %d wavelets for %d sources", ErrInvalidOptions, len(wavs), src.N())
	}

	switch o.Physics {
	case Acoustic:
		params := model.NewAcoustic(geom, halo, o.Vp)
		a, err := wave.NewAcoustic(wave.AcousticOpts{
			Params: params, SO: o.SpaceOrder, Src: src, SrcWav: wavs, Rec: rec,
			SincSource: o.SincSources,
		})
		if err != nil {
			return nil, err
		}
		s.acoustic, s.prop, s.ops = a, a, a.Ops
	case TTI:
		eps := orDefault(o.Epsilon, 0.2)
		del := orDefault(o.Delta, 0.1)
		th := orDefault(o.Theta, 0.35)
		ph := orDefault(o.Phi, 0.25)
		params := model.NewTTI(geom, halo, o.Vp, eps, del, th, ph)
		w, err := wave.NewTTI(wave.TTIOpts{
			Params: params, SO: o.SpaceOrder, Src: src, SrcWav: wavs, Rec: rec,
			SincSource: o.SincSources,
		})
		if err != nil {
			return nil, err
		}
		s.tti, s.prop, s.ops = w, w, w.Ops
	case Elastic:
		vs := o.Vs
		if vs == nil {
			vp := o.Vp
			vs = func(x, y, z float64) float64 { return vp(x, y, z) / 2 }
		}
		rho := o.Rho
		if rho == nil {
			rho = model.Homogeneous(1800)
		}
		params := model.NewElastic(geom, halo, o.Vp, vs, rho)
		e, err := wave.NewElastic(wave.ElasticOpts{
			Params: params, SO: o.SpaceOrder, Src: src, SrcWav: wavs, Rec: rec,
			SincSource: o.SincSources,
		})
		if err != nil {
			return nil, err
		}
		s.elastic, s.prop, s.ops = e, e, e.Ops
	}
	if o.KernelVariant != "" {
		if err := s.SetKernelVariant(o.KernelVariant); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrInvalidOptions, err)
		}
	}
	return s, nil
}

// checkCoords validates off-the-grid coordinates up front so that placement
// problems surface as ErrPlacement from New instead of interpolation errors
// (or index panics on NaN) from deep inside the propagator builders. Points
// exactly on the grid boundary are legal for trilinear interpolation (the
// support clamps onto the hull face); sinc supports need SincRadius points of
// margin.
func checkCoords(kind string, pts []Coord, shape [3]int, h [3]float64, sinc bool) error {
	for i, c := range pts {
		for d := 0; d < 3; d++ {
			u := c[d] / h[d]
			if math.IsNaN(u) || math.IsInf(u, 0) {
				return fmt.Errorf("%w: %s %d coordinate[%d]=%g is not finite", ErrPlacement, kind, i, d, c[d])
			}
			if sinc {
				if u < float64(sparse.SincRadius-1) || u >= float64(shape[d]-sparse.SincRadius) {
					return fmt.Errorf("%w: %s %d coordinate[%d]=%g too close to the boundary for sinc radius %d",
						ErrPlacement, kind, i, d, c[d], sparse.SincRadius)
				}
				continue
			}
			if u < 0 || u > float64(shape[d]-1) {
				return fmt.Errorf("%w: %s %d coordinate[%d]=%g outside the grid hull [0, %g]",
					ErrPlacement, kind, i, d, c[d], float64(shape[d]-1)*h[d])
			}
		}
	}
	return nil
}

func orDefault(f FieldFunc, v float64) model.FieldFunc {
	if f != nil {
		return f
	}
	return model.Homogeneous(v)
}

func probeMax(g model.Geometry, f FieldFunc) float64 {
	// Probe coarsely in x and y but at full grid resolution in z: subsurface
	// models are layered in depth, so thin fast layers must not slip between
	// probe points (they would yield an unstable CFL dt). Models with
	// sub-grid lateral structure finer than 1/16 of the domain should pass
	// a DtOverride computed from their true vmax.
	m := 0.0
	for i := 0; i <= 16; i++ {
		for j := 0; j <= 16; j++ {
			for k := 0; k < g.Nz; k++ {
				v := f(float64(i)/16*float64(g.Nx-1)*g.Hx,
					float64(j)/16*float64(g.Ny-1)*g.Hy,
					float64(k)*g.Hz)
				if v > m {
					m = v
				}
			}
		}
	}
	return m
}

// Geometry reports the discretization (shape, spacing, dt, nt).
func (s *Simulation) Geometry() (shape [3]int, spacing [3]float64, dt float64, nt int) {
	return [3]int{s.geom.Nx, s.geom.Ny, s.geom.Nz},
		[3]float64{s.geom.Hx, s.geom.Hy, s.geom.Hz}, s.geom.Dt, s.geom.Nt
}

// Dt returns the CFL-stable timestep in seconds.
func (s *Simulation) Dt() float64 { return s.geom.Dt }

// Steps returns the number of timesteps.
func (s *Simulation) Steps() int { return s.geom.Nt }

// MinTile returns the smallest legal WTB tile edge for this simulation.
func (s *Simulation) MinTile() int { return s.prop.MinTile() }

// Reset clears wavefields and recordings so the simulation can be re-run.
//
// Reset restores exactly the state a freshly built Simulation starts from:
// all wavefield buffers are zeroed (halo included) and the sampler /
// baseline receiver recordings are cleared, while every precomputed
// structure (model factor grids, FD coefficients, sparse masks and the
// decomposed source wavefield) is left intact — none of it depends on run
// state. A run after Reset therefore produces bitwise-identical wavefields
// and receiver records to the first run under the same schedule; Run calls
// Reset itself, so consecutive Runs are independent. The batch engine
// (Survey) leans on this to recycle one propagator across many shots.
func (s *Simulation) Reset() {
	switch {
	case s.acoustic != nil:
		s.acoustic.Reset()
	case s.tti != nil:
		s.tti.Reset()
	case s.elastic != nil:
		s.elastic.Reset()
	}
}

// Run executes the simulation from zero initial conditions under the given
// schedule and returns throughput and receiver data. The simulation is
// Reset first, so consecutive Runs are independent.
//
// With Options.Observe set (or a process-global obs registry installed),
// the returned Result additionally carries the per-phase wall-time
// breakdown and counter deltas of this run.
func (s *Simulation) Run(sched Schedule) (*Result, error) {
	_, restore := s.obsRegistry()
	defer restore()
	return s.runShot(context.Background(), sched, 0, ResumeOptions{}, true)
}

// runShot is the one shot body, behind Run and every survey lane: reset,
// optionally restore shot's checkpoint from ro, execute the remaining
// timesteps — in chunks with a checkpoint after each when ro asks for a
// cadence — and assemble the Result. perRunObs attaches this run's obs
// snapshot delta to the Result; survey lanes leave it off because K lanes
// share the process-global registry and their deltas would mix, so batch
// shots report through the registry's counters only.
func (s *Simulation) runShot(ctx context.Context, sched Schedule, shot int, ro ResumeOptions, perRunObs bool) (*Result, error) {
	s.Reset()
	nt := s.geom.Nt
	t0 := 0
	var prefix [][]float32
	if ck := ro.Checkpoints[shot]; ck != nil {
		if err := s.restoreCheckpoint(ck, sched); err != nil {
			return nil, err
		}
		t0, prefix = ck.T, ck.receivers
	}
	checkpointing := ro.EveryTiles > 0 && ro.OnCheckpoint != nil
	stride := nt
	if checkpointing {
		stride = tileDepth(sched) * ro.EveryTiles
	}
	reg := obs.Active()
	var before obs.Snapshot
	if reg != nil && perRunObs {
		before = reg.Snapshot()
	}

	start := time.Now()
	for t := t0; t < nt; {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := min(t+stride, nt)
		if err := s.execSchedule(sched, t, end); err != nil {
			return nil, err
		}
		t = end
		if checkpointing && t < nt {
			ck, err := captureCheckpoint(s, shot, t, prefix)
			if err != nil {
				return nil, err
			}
			if err := ro.OnCheckpoint(ck); err != nil {
				return nil, fmt.Errorf("wavesim: shot %d checkpoint at t=%d: %w", shot, t, err)
			}
		}
	}
	elapsed := time.Since(start)

	res := newResult(sched.schedule(), elapsed,
		int64(s.geom.Nx)*int64(s.geom.Ny)*int64(s.geom.Nz)*int64(nt-t0))
	res.sched = sched
	res.Kernel = s.KernelName()
	if reg != nil {
		// One labeled series per (physics, schedule) pair, so a scraped
		// /metrics endpoint can break run counts down without log parsing.
		reg.Counter(obs.SeriesName("runs_total",
			"physics", s.opts.Physics.String(), "schedule", sched.schedule())).Add(1)
		if perRunObs {
			res.attachObs(reg.Snapshot().DeltaFrom(before))
		}
	}
	rec, err := s.ops.Receivers()
	if err != nil {
		return nil, err
	}
	// Rows [0, t0) were recorded before the interruption this run resumed
	// from; its own sampler has zeros there. Splice the carried-over prefix
	// back in.
	for t := range prefix {
		rec[t] = prefix[t]
	}
	res.Receivers = rec
	return res, nil
}

// execSchedule drives the propagator over timesteps [t0, t1) under sched
// through the one executor, tiling.Run. Running a schedule in chunks whose
// boundaries are multiples of its tileDepth is bitwise identical to one
// uninterrupted range.
func (s *Simulation) execSchedule(sched Schedule, t0, t1 int) error {
	kind, cfg, err := tilingPlan(sched)
	if err != nil {
		return err
	}
	cfg.Workers = s.workers
	return tiling.Run(s.prop, kind, cfg, t0, t1, nil)
}

// tilingPlan maps a public schedule value onto the executor's kind and
// configuration.
func tilingPlan(sched Schedule) (tiling.Kind, tiling.Config, error) {
	switch c := sched.(type) {
	case Spatial:
		kind := tiling.Spatial
		if c.Unfused {
			kind = tiling.SpatialUnfused
		}
		cfg := tiling.Config{BlockX: c.BlockX, BlockY: c.BlockY}
		if cfg.BlockX == 0 {
			cfg.BlockX = 8
		}
		if cfg.BlockY == 0 {
			cfg.BlockY = 8
		}
		return kind, cfg, nil
	case WTB:
		return tiling.WTB, wtbConfig(c), nil
	case WTBPipelined:
		return tiling.WTBPipelined, wtbConfig(WTB(c)), nil
	}
	return 0, tiling.Config{}, fmt.Errorf("wavesim: unknown schedule %T", sched)
}

func wtbConfig(c WTB) tiling.Config {
	return tiling.Config{TT: c.TimeTile, TileX: c.TileX, TileY: c.TileY, BlockX: c.BlockX, BlockY: c.BlockY}
}

// tileDepth is the schedule's time-tile granularity: chunking a run at
// multiples of it reproduces the uninterrupted tile sequence exactly.
func tileDepth(sched Schedule) int {
	_, cfg, _ := tilingPlan(sched) // an unknown schedule fails in execSchedule
	return max(1, cfg.TT)
}

// obsRegistry resolves the registry a run reports to: a process-global one
// if installed, a run-scoped one if Options.Observe is set (restored by the
// returned func), nil otherwise.
func (s *Simulation) obsRegistry() (*obs.Registry, func()) {
	if r := obs.Active(); r != nil {
		return r, func() {}
	}
	if !s.opts.Observe {
		return nil, func() {}
	}
	r := obs.NewRegistry()
	return r, obs.Swap(r)
}

// attachObs fills the Result's Phases and Counters from a run's snapshot
// delta, adding the "overhead" residual so the phases sum to Elapsed.
func (r *Result) attachObs(snap obs.Snapshot) {
	r.Phases = snap.Phases
	r.Counters = snap.Counters
	overhead := r.Elapsed - snap.PhaseTotal()
	if overhead < 0 {
		overhead = 0
	}
	r.Phases[obs.PhaseOverhead] = overhead
}

// WavefieldSlice returns a z-plane of the final main wavefield (pressure u
// for Acoustic, p for TTI, vz for Elastic) as rows[x][y], for plotting and
// snapshot inspection.
func (s *Simulation) WavefieldSlice(z int) [][]float32 {
	var g *grid.Grid
	switch {
	case s.acoustic != nil:
		g = s.acoustic.Final()
	case s.tti != nil:
		g = s.tti.WavefieldP(s.geom.Nt)
	case s.elastic != nil:
		g = s.elastic.Vz
	}
	out := make([][]float32, g.Nx)
	for x := range out {
		out[x] = make([]float32, g.Ny)
		for y := range out[x] {
			out[x][y] = g.At(x, y, z)
		}
	}
	return out
}

// MaxAbsWavefield returns the maximum |u| of the final main wavefield.
func (s *Simulation) MaxAbsWavefield() float64 {
	switch {
	case s.acoustic != nil:
		return s.acoustic.Final().MaxAbs()
	case s.tti != nil:
		return s.tti.WavefieldP(s.geom.Nt).MaxAbs()
	case s.elastic != nil:
		return s.elastic.Vz.MaxAbs()
	}
	return 0
}

// RunWithSnapshots executes the spatially-blocked schedule while capturing
// the main wavefield's x–z plane at y = yPlane every `every` timesteps —
// the hook reverse-time migration and FWI gradient builders need (the
// paper's motivating applications). Snapshot k holds the wavefield at time
// index k·every+1 as [x][z] rows. Temporal blocking keeps interior
// timesteps cache-transient, so snapshotting naturally pairs with the
// spatial schedule.
func (s *Simulation) RunWithSnapshots(every, yPlane, blockX, blockY int) (*Result, [][][]float32, error) {
	if every < 1 || yPlane < 0 || yPlane >= s.geom.Ny {
		return nil, nil, fmt.Errorf("wavesim: bad snapshot spec every=%d y=%d", every, yPlane)
	}
	sched := Spatial{BlockX: blockX, BlockY: blockY}
	s.Reset()
	reg, restore := s.obsRegistry()
	defer restore()
	var before obs.Snapshot
	if reg != nil {
		before = reg.Snapshot()
	}
	start := time.Now()
	var snaps [][][]float32
	for t := 0; t < s.geom.Nt; t++ {
		if err := s.execSchedule(sched, t, t+1); err != nil {
			return nil, nil, err
		}
		if t%every == 0 {
			snaps = append(snaps, s.capturePlane(t+1, yPlane))
		}
	}
	elapsed := time.Since(start)
	res := newResult("spatial+snapshots", elapsed,
		int64(s.geom.Nx)*int64(s.geom.Ny)*int64(s.geom.Nz)*int64(s.geom.Nt))
	res.sched = sched
	res.Kernel = s.KernelName()
	if reg != nil {
		res.attachObs(reg.Snapshot().DeltaFrom(before))
	}
	rec, err := s.ops.Receivers()
	if err != nil {
		return nil, nil, err
	}
	res.Receivers = rec
	return res, snaps, nil
}

// capturePlane copies the main wavefield's x–z plane at time index t.
func (s *Simulation) capturePlane(t, y int) [][]float32 {
	var g *grid.Grid
	switch {
	case s.acoustic != nil:
		g = s.acoustic.Wavefield(t)
	case s.tti != nil:
		g = s.tti.WavefieldP(t)
	case s.elastic != nil:
		g = s.elastic.Vz
	}
	out := make([][]float32, g.Nx)
	for x := range out {
		out[x] = append([]float32(nil), g.Row(x, y)...)
	}
	return out
}
