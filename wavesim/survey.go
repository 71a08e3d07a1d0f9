package wavesim

import (
	"context"
	"fmt"
	"time"

	"wavetile/internal/batch"
	"wavetile/internal/grid"
	"wavetile/internal/obs"
	"wavetile/internal/sparse"
	"wavetile/internal/wave"
	"wavetile/internal/wavelet"
)

// Shot is one source configuration of a survey. Receivers, the earth model
// and the time axis are shared across the whole survey (they live in the
// base Options); only the sources move between shots — the seismic
// acquisition geometry of the paper's motivating workload.
type Shot struct {
	Sources []Coord
	// SourceWavelets overrides the generated Ricker series for this shot
	// (one per source). Nil uses the base Options' SourceF0/SourceAmp.
	SourceWavelets [][]float32
}

// SurveyOptions configures the batch execution of a Survey.
type SurveyOptions struct {
	// Concurrency fixes the number of shots run concurrently (K); each
	// runs with Workers/K of the machine under the pipelined schedule.
	// 0 autotunes K by measuring shots/sec on the survey's first shots.
	// 1 runs shots strictly sequentially (still amortized and pooled).
	Concurrency int
	// MaxConcurrency bounds the autotune (0 = worker count).
	MaxConcurrency int
	// ProbeShots is how many shots per lane each autotune candidate
	// measures (default 2); probed shots' results are kept.
	ProbeShots int
	// OnShot, when non-nil, is called as each shot completes. Calls may
	// come from concurrent lanes (never for the same shot twice), so the
	// callback must be safe for concurrent use.
	OnShot func(shot int, res *Result)
}

// Survey runs N shots over one shared, immutable model. Construction does
// all shot-invariant work exactly once — material and damping grids,
// receiver supports/masks, the CFL time axis — and Run precomputes every
// shot's source decomposition up front, then drains the shots through
// pooled propagator clones. Per-shot results are bitwise identical to a
// fresh New-per-shot loop under the same schedule (asserted by the
// batched-vs-sequential oracle test), independent of pooling, concurrency
// or lane assignment.
type Survey struct {
	base     Options
	shots    []Shot
	opts     SurveyOptions
	template *Simulation
	pool     *grid.Pool
	bundles  []*wave.SourceBundle
}

// SurveyResult is the outcome of one Survey.Run.
type SurveyResult struct {
	// Shots holds each shot's Result (receiver record, throughput,
	// kernel), indexed like the shots passed to NewSurvey.
	Shots []*Result

	Elapsed     time.Duration
	ShotsPerSec float64
	// Concurrency is the K the bulk of the survey ran at (the autotuned
	// value when SurveyOptions.Concurrency was 0).
	Concurrency int
	// Precompute is the wall time of the upfront parallel source
	// decomposition across all shots.
	Precompute time.Duration
	// PoolHits/PoolMisses count wavefield-grid requests served by
	// recycling vs by allocation during this run. On a Survey's second
	// and later Runs the steady state is all hits: no wavefield-sized
	// allocation happens per shot.
	PoolHits, PoolMisses int64
	// Probes is the autotune's shots/sec trajectory (nil when K fixed).
	Probes []batch.Probe
}

// NewSurvey validates the shots and builds the shared-model template. The
// base Options' Sources/SourceWavelets must be empty — sources belong to
// the shots.
func NewSurvey(base Options, shots []Shot, opts SurveyOptions) (*Survey, error) {
	if len(shots) == 0 {
		return nil, fmt.Errorf("%w: survey has no shots", ErrInvalidOptions)
	}
	if len(base.Sources) > 0 || base.SourceWavelets != nil {
		return nil, fmt.Errorf("%w: survey base options must not carry sources (put them in Shots)", ErrInvalidOptions)
	}
	for i, sh := range shots {
		if err := checkCoords(fmt.Sprintf("shot %d source", i), sh.Sources, base.Shape, base.Spacing, base.SincSources); err != nil {
			return nil, err
		}
		if sh.SourceWavelets != nil && len(sh.SourceWavelets) != len(sh.Sources) {
			return nil, fmt.Errorf("%w: shot %d has %d wavelets for %d sources",
				ErrInvalidOptions, i, len(sh.SourceWavelets), len(sh.Sources))
		}
	}
	// The template is a full sourceless Simulation: model grids, damping,
	// receiver supports and the time axis are built here, once. Lanes are
	// shared-state clones of it; the template itself never runs, so its
	// (unpooled) wavefields stay zero and pristine.
	template, err := New(base)
	if err != nil {
		return nil, err
	}
	return &Survey{
		base:     base,
		shots:    shots,
		opts:     opts,
		template: template,
		pool:     grid.NewPool(),
		bundles:  make([]*wave.SourceBundle, len(shots)),
	}, nil
}

// Geometry reports the survey's shared discretization.
func (sv *Survey) Geometry() (shape [3]int, spacing [3]float64, dt float64, nt int) {
	return sv.template.Geometry()
}

// Shots returns the number of shots.
func (sv *Survey) Shots() int { return len(sv.shots) }

// MinTile reports the propagator's minimum WTB tile edge (see
// Simulation.MinTile) — surveys need it to build valid WTB schedules.
func (sv *Survey) MinTile() int { return sv.template.MinTile() }

// surveyLane adapts one shared-model Simulation clone to batch.Lane: every
// shot of every survey run — plain, cancellable or resumable — goes through
// its RunShot.
type surveyLane struct {
	ctx   context.Context
	sv    *Survey
	sim   *Simulation
	sched Schedule
	ro    ResumeOptions
	out   []*Result
}

func (l *surveyLane) SetWorkers(n int) { l.sim.workers = n }

func (l *surveyLane) RunShot(shot int) error {
	if l.ro.Completed[shot] {
		return nil
	}
	l.sim.ops.InstallSources(l.sv.bundles[shot])
	res, err := l.sim.runShot(l.ctx, l.sched, shot, l.ro, false)
	if err != nil {
		return err
	}
	l.out[shot] = res
	if reg := obs.Active(); reg != nil {
		// Per-shot throughput, scraped as a live gauge (milli-GPts/s to
		// keep the integer metric meaningful at survey problem sizes).
		reg.Gauge("survey_shot_gpts_milli").Set(int64(res.GPointsPerSec * 1000))
	}
	switch {
	case l.ro.OnShot != nil:
		l.ro.OnShot(shot, res)
	case l.sv.opts.OnShot != nil:
		l.sv.opts.OnShot(shot, res)
	}
	return nil
}

// shotPoints builds the sparse point set for one shot.
func shotPoints(sh Shot) *sparse.Points {
	src := &sparse.Points{}
	for _, c := range sh.Sources {
		src.Coords = append(src.Coords, sparse.Coord(c))
	}
	return src
}

// precomputeShot builds shot i's source bundle through the template's
// sparse ops — the exact code path New takes, so installed bundles are
// bitwise identical to per-shot construction.
func (sv *Survey) precomputeShot(i int) error {
	sh := sv.shots[i]
	wavs := sh.SourceWavelets
	if wavs == nil {
		_, _, dt, nt := sv.template.Geometry()
		f0, amp := sv.base.SourceF0, sv.base.SourceAmp
		if f0 == 0 {
			f0 = 10
		}
		if amp == 0 {
			amp = 1
		}
		wavs = make([][]float32, len(sh.Sources))
		for j := range wavs {
			wavs[j] = wavelet.RickerSeries(f0, nt, dt, amp)
		}
	}
	b, err := sv.template.ops.PrecomputeSources(shotPoints(sh), wavs, sv.base.SincSources)
	if err != nil {
		return err
	}
	sv.bundles[i] = b
	return nil
}

// fork clones the template into a new lane Simulation sharing all
// model-derived state, with wavefields drawn from the survey's pool.
func (sv *Survey) fork() *Simulation {
	t := sv.template
	c := &Simulation{opts: t.opts, geom: t.geom}
	switch {
	case t.acoustic != nil:
		a := t.acoustic.CloneShared(sv.pool)
		c.acoustic, c.prop, c.ops = a, a, a.Ops
	case t.tti != nil:
		w := t.tti.CloneShared(sv.pool)
		c.tti, c.prop, c.ops = w, w, w.Ops
	case t.elastic != nil:
		e := t.elastic.CloneShared(sv.pool)
		c.elastic, c.prop, c.ops = e, e, e.Ops
	}
	return c
}

// release returns a lane's wavefields to the survey pool.
func (sv *Survey) release(s *Simulation) {
	switch {
	case s.acoustic != nil:
		s.acoustic.ReleaseGrids(sv.pool)
	case s.tti != nil:
		s.tti.ReleaseGrids(sv.pool)
	case s.elastic != nil:
		s.elastic.ReleaseGrids(sv.pool)
	}
}

// Run executes every shot under sched and returns the per-shot results
// plus survey-level throughput. Each lane's wavefield grids are taken from
// the survey's buffer pool and returned afterwards, so repeated Runs (and
// autotune lane turnover) recycle instead of reallocating; survey_pool_hits
// / survey_pool_misses / survey_shots_done counters land on the active obs
// registry (and thus /metrics).
func (sv *Survey) Run(sched Schedule) (*SurveyResult, error) {
	return sv.RunResumable(context.Background(), sched, ResumeOptions{})
}

// RunContext is Run with external cancellation: once ctx is done no new
// shot is dispatched, in-flight shots finish, lane wavefields return to
// the pool, and the error satisfies errors.Is(err, ctx.Err()).
func (sv *Survey) RunContext(ctx context.Context, sched Schedule) (*SurveyResult, error) {
	return sv.RunResumable(ctx, sched, ResumeOptions{})
}

// RunSurvey is the one-call batch entry point: build a Survey over base
// and shots, run every shot under sched, return the per-shot results.
//
//	res, err := wavesim.RunSurvey(base, shots, wavesim.WTB{...}, wavesim.SurveyOptions{})
func RunSurvey(base Options, shots []Shot, sched Schedule, opts SurveyOptions) (*SurveyResult, error) {
	sv, err := NewSurvey(base, shots, opts)
	if err != nil {
		return nil, err
	}
	return sv.Run(sched)
}
