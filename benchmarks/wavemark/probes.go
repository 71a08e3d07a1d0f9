package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"strings"
	"time"

	"wavetile/internal/batch"
	"wavetile/internal/core"
	"wavetile/internal/dist"
	"wavetile/internal/grid"
	"wavetile/internal/hostcal"
	"wavetile/internal/model"
	"wavetile/internal/obs"
	"wavetile/internal/par"
	"wavetile/internal/sched"
	"wavetile/internal/sparse"
	"wavetile/internal/verify"
	"wavetile/internal/wave"
	"wavetile/internal/wavelet"
	"wavetile/wavesim"
)

// The probes time one layer each on fixed inputs, the same for every
// workload, so their numbers are context for the sections' ratios and move
// only when the layer itself (or the host) does.

// probeSizes are the probe problem sizes at a scale.
type probeSizes struct {
	kernelN    int // grid edge of the per-kernel Step probe
	sincPoints int // off-the-grid points of the sparse/core probe
	sparseN    int
	sparseNt   int
	bigGridN   int // grid edge of the bandwidth probes; past the LLC at full scale
	distN      int
	ckptN      int
	snapN      int
	parCalls   int
	parItems   int
	nopShots   int
}

func sizes(scale string) probeSizes {
	if scale == "tiny" {
		return probeSizes{kernelN: 24, sincPoints: 32, sparseN: 24, sparseNt: 8,
			bigGridN: 32, distN: 24, ckptN: 24, snapN: 16, parCalls: 200, parItems: 1 << 12, nopShots: 64}
	}
	return probeSizes{kernelN: 128, sincPoints: 2048, sparseN: 96, sparseNt: 32,
		bigGridN: 256, distN: 128, ckptN: 48, snapN: 64, parCalls: 20000, parItems: 1 << 20, nopShots: 4096}
}

// timeIt returns the wall of f.
func timeIt(f func()) time.Duration {
	t0 := time.Now()
	f()
	return time.Since(t0)
}

// medianOf times reps calls of f and returns the median wall in seconds.
func medianOf(reps int, f func()) float64 {
	var walls []float64
	for i := 0; i < reps; i++ {
		walls = append(walls, timeIt(f).Seconds())
	}
	return median(walls)
}

func runProbes(e *env, res *result, shotW workload) error {
	sz := sizes(e.scale)
	s := res.samples
	se, err := e.probeEnv(shotW)
	if err != nil {
		return err
	}
	var fp *hostcal.Fingerprint
	for _, p := range []struct {
		name string
		run  func() error
	}{
		{"hostcal", func() (err error) { fp, err = probeHostcal(e.scale, s); return err }},
		{"sparse+core", func() error { return probeSparseCore(e.seed, sz, s) }},
		{"wave kernels", func() error { return probeKernels(sz, fp, s) }},
		{"tiling+par", func() error { return probeSchedules(se, s) }},
		{"obs", func() error { return probeObserve(se, s) }},
		{"sched", func() error { probeSched(s); return nil }},
		{"par", func() error { probePar(sz, s); return nil }},
		{"grid", func() error { probeGrid(sz, s); return nil }},
		{"batch", func() error { return probeBatch(sz, s) }},
		{"wavesim checkpoint", func() error { return probeCheckpoint(sz, s) }},
		{"verify", func() error { return probeSnapshot(sz, s) }},
		{"dist", func() error { return probeDist(sz, s) }},
	} {
		t0 := time.Now()
		if err := p.run(); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
		e.logf("    probe %-18s %.2fs", p.name, time.Since(t0).Seconds())
	}
	return nil
}

// probeHostcal measures the host in the same process, in hostcal's quick
// mode: the bandwidth and FLOP ceilings the kernel probes are set against.
func probeHostcal(scale string, s samples) (*hostcal.Fingerprint, error) {
	o := hostcal.Options{Quick: true}
	if scale == "tiny" {
		o.TargetBytes, o.MinDRAMBuf, o.FlopIters = 4<<20, 4<<20, 1e5
	}
	fp, err := hostcal.Measure(o)
	if err != nil {
		return nil, err
	}
	s.add("hostcal.triad_gbs", fp.Stream.TriadGBs)
	s.add("hostcal.peak_gflops_1c", fp.CoreGFlops)
	s.add("hostcal.llc_mb", float64(fp.Levels[len(fp.Levels)-1].SizeBytes)/(1<<20))
	return fp, nil
}

// probeSparseCore times the off-the-grid machinery on a dense set of sinc
// points: support construction and the Listing-1 baseline operators
// (sparse), then mask building, wavelet decomposition and the fused
// injection, sampling and gather (core).
func probeSparseCore(seed int64, sz probeSizes, s samples) error {
	n, nt := sz.sparseN, sz.sparseNt
	r := rand.New(rand.NewSource(seed))
	lo, hi := 5*spacing, float64(n-6)*spacing
	pts := &sparse.Points{}
	for i := 0; i < sz.sincPoints; i++ {
		pts.Coords = append(pts.Coords, sparse.Coord{lo + r.Float64()*(hi-lo), lo + r.Float64()*(hi-lo), lo + r.Float64()*(hi-lo)})
	}
	var err error
	d := timeIt(func() {
		for _, c := range pts.Coords {
			if _, e := sparse.SincSupport(c, n, n, n, spacing, spacing, spacing); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return err
	}
	s.add("sparse.support_us_per_point", d.Seconds()*1e6/float64(pts.N()))

	sups, _, err := pts.SincSupports(n, n, n, spacing, spacing, spacing)
	if err != nil {
		return err
	}
	entries := float64(len(sups) * 8)
	u := grid.New(n, n, n, 2)
	one := func(x, y, z int) float32 { return 1 }
	amps := make([]float32, len(sups))
	for i := range amps {
		amps[i] = 1
	}
	out := make([]float32, len(sups))
	s.add("sparse.inject_baseline_ns_per_entry", medianOf(3, func() { sparse.Inject(u, sups, amps, one) })*1e9/entries)
	s.add("sparse.interp_baseline_ns_per_entry", medianOf(3, func() { sparse.Interpolate(u, sups, out) })*1e9/entries)

	var masks *core.Masks
	s.add("core.build_masks_s", timeIt(func() { masks = core.BuildMasks(n, n, n, sups) }).Seconds())
	series := wavelet.RickerSeries(sourceF0, nt, 1e-3, sourceAmp)
	wavs := make([][]float32, len(sups))
	for i := range wavs {
		wavs[i] = series
	}
	var dcmp [][]float32
	d = timeIt(func() { dcmp, err = masks.DecomposeWavelets(sups, wavs, nt, one) })
	if err != nil {
		return err
	}
	s.add("core.decompose_s", d.Seconds())
	s.add("core.affected_points", float64(masks.Npts))

	full := grid.FullRegion(n, n)
	npts := float64(masks.Npts)
	s.add("core.inject_ns_per_point", medianOf(5, func() { masks.InjectRegion(u, full, dcmp[0]) })*1e9/npts)
	sampler := core.NewSampler(masks, nt)
	s.add("core.sample_ns_per_point", medianOf(5, func() { sampler.SampleRegion(0, u, full) })*1e9/npts)
	d = timeIt(func() { _, err = sampler.GatherReceivers(sups) })
	s.add("core.gather_s", d.Seconds())
	return err
}

// probeKernels times one full-region Step of every stencil kernel on one
// worker, with no sources or receivers, and sets the rate against the host
// ceilings measured in this run.
func probeKernels(sz probeSizes, fp *hostcal.Fingerprint, s samples) error {
	saved := par.Workers
	par.Workers = 1
	defer func() { par.Workers = saved }()

	for _, name := range kernelNames {
		physics, so, _ := strings.Cut(name, "_so")
		p := problem{Physics: physics, SO: 4, N: sz.kernelN, NBL: 4, Steps: 5}
		if so == "8" {
			p.SO = 8
		}
		asm, err := assemble(nil, 0, 0, p, cflDt(p), nil, nil)
		if err != nil {
			return err
		}
		prop := asm.prop
		prop.SetBlocks(8, 8)
		nx, ny := prop.GridShape()
		off := prop.MaxPhaseOffset()
		full := grid.Region{X0: 0, X1: nx + off, Y0: 0, Y1: ny + off}

		// The warm-up step runs under an obs registry, which is what counts
		// steps taken through the radius-generic fallback kernel.
		reg := obs.NewRegistry()
		restore := obs.Swap(reg)
		prop.Step(0, full, true)
		restore()
		generic := reg.Counter(wave.CounterGenericSteps).Load()

		// Cheap kernels are timed for up to four steps, dear ones for one:
		// a tenth of a second of timed steps is enough of either.
		var walls []float64
		for t, total := 1, 0.0; t < p.Steps && total < 0.1; t++ {
			walls = append(walls, timeIt(func() { prop.Step(t, full, true) }).Seconds())
			total += walls[len(walls)-1]
		}
		wall := median(walls)
		gpts := float64(p.points()) / wall / 1e9
		gflops := gpts * float64(asm.flops)
		// Roofline: the lower of the compute ceiling and bandwidth times
		// operations per byte, bytes computed from array sizes.
		ceiling := min(fp.CoreGFlops, fp.Stream.TriadGBs*float64(asm.flops)/float64(asm.bytesPerPoint))
		s.add("wave."+name+".step_gpts", gpts)
		s.add("wave."+name+".flops_per_pt", float64(asm.flops))
		s.add("wave."+name+".gflops", gflops)
		s.add("wave."+name+".roofline_frac", gflops/ceiling)
		s.add("wave."+name+".generic_steps", float64(generic))
	}
	return nil
}

// probeSchedules builds the probe shot from the layer constructors and
// runs the three schedules back to back on the same propagator with the
// same frozen constants, then the spatial schedule again on one worker.
func probeSchedules(e *env, s samples) error {
	p := e.w.Problem
	rec := newRecorder()
	asm, err := assemble(rec, 0, 0, p, cflDt(p), e.in.Shots[0], e.in.Receivers)
	if err != nil {
		return err
	}
	for _, sp := range rec.snapshot() {
		switch sp.Layer {
		case "model":
			s.add("model.build_s", (sp.End - sp.Start).Seconds())
		case "wave":
			s.add("wave.new_s", (sp.End - sp.Start).Seconds())
		}
	}

	pool := grid.NewPool()
	asm.clone(pool) // fills the pool
	s.add("wave.clone_us", medianOf(5, func() { asm.clone(pool) })*1e6)

	work := float64(p.points()) * float64(p.Steps) / 1e9
	rate := func(sc schedule) (float64, error) {
		asm.reset()
		var err error
		d := timeIt(func() { err = sc.run(asm.prop) })
		return work / d.Seconds(), err
	}
	wtb := e.w.Sched
	pipelined := wtb
	pipelined.Kind = "wtb-pipelined"
	if _, err := rate(spatial8); err != nil { // warm-up
		return err
	}
	rates := map[string]float64{}
	for _, sc := range []schedule{spatial8, wtb, pipelined} {
		if rates[sc.Kind], err = rate(sc); err != nil {
			return err
		}
	}
	s.add("tiling.spatial_gpts", rates["spatial"])
	s.add("tiling.wtb_gpts", rates["wtb"])
	s.add("tiling.pipelined_gpts", rates["wtb-pipelined"])
	s.add("tiling.wtb_over_spatial", rates["wtb"]/rates["spatial"])
	s.add("tiling.pipelined_over_wtb", rates["wtb-pipelined"]/rates["wtb"])

	// Scaling efficiency: the spatial rate on all workers over workers times
	// the one-worker rate. One worker is trivially 1.
	eff := 1.0
	if n := par.Workers; n > 1 {
		par.Workers = 1
		one, err := rate(spatial8)
		par.Workers = n
		if err != nil {
			return err
		}
		eff = rates["spatial"] / (float64(n) * one)
	}
	s.add("par.scaling_eff", eff)
	return nil
}

// probeObserve runs the probe shot through wavesim with Options.Observe off
// and on: the cost of the per-phase instrumentation.
func probeObserve(e *env, s samples) error {
	wall := func(observe bool) (float64, error) {
		opts := e.in.options(e.w.Problem, e.in.Shots[0])
		opts.Observe = observe
		sim, err := wavesim.New(opts)
		if err != nil {
			return 0, err
		}
		if _, err := sim.Run(e.w.Sched.wavesim()); err != nil { // warm-up
			return 0, err
		}
		d := timeIt(func() { _, err = sim.Run(e.w.Sched.wavesim()) })
		return d.Seconds(), err
	}
	off, err := wall(false)
	if err != nil {
		return err
	}
	on, err := wall(true)
	if err != nil {
		return err
	}
	s.add("obs.observe_overhead_frac", on/off-1)
	return nil
}

// probeSched times the task graph of an 8×8-tile, 8-step time tile: its
// construction, and a drain in which every task is a no-op.
func probeSched(s samples) {
	const nb, tt = 8, 8
	var g *sched.TileGraph
	s.add("sched.graph_build_us", medianOf(5, func() { g = sched.NewTileGraph(nb, nb, tt, false, nil) })*1e6)
	tasks := float64(g.Tasks())
	s.add("sched.tasks", tasks)
	var drains []float64
	for i := 0; i < 5; i++ { // graphs are single-use
		g := sched.NewTileGraph(nb, nb, tt, false, nil)
		drains = append(drains, timeIt(func() { g.Run(par.Workers, func(worker, bx, by, k int) {}) }).Seconds())
	}
	s.add("sched.empty_task_ns", median(drains)*1e9/tasks)
}

// probePar times the parallel-for itself: a fork/join with one empty item
// per worker, and the per-item cost of a large empty loop.
func probePar(sz probeSizes, s samples) {
	nop := func(int) {}
	par.For(par.Workers, nop) // starts the pool
	d := timeIt(func() {
		for i := 0; i < sz.parCalls; i++ {
			par.For(par.Workers, nop)
		}
	})
	s.add("par.for_call_ns", d.Seconds()*1e9/float64(sz.parCalls))
	s.add("par.for_item_ns", medianOf(3, func() { par.For(sz.parItems, nop) })*1e9/float64(sz.parItems))
}

// probeGrid times zeroing and cloning a grid (past the last-level cache at
// full scale) and a warm Get/Put cycle of a survey-sized grid.
func probeGrid(sz probeSizes, s samples) {
	g := grid.New(sz.bigGridN, sz.bigGridN, sz.bigGridN, 2)
	size := float64(len(g.Data)) * 4
	g.Zero()
	s.add("grid.zero_gbs", size/medianOf(3, g.Zero)/1e9)
	s.add("grid.clone_gbs", size/medianOf(3, func() { _ = g.Clone() })/1e9)

	pool := grid.NewPool()
	pool.Put(pool.Get(48, 48, 48, 2))
	const cycles = 200
	d := timeIt(func() {
		for i := 0; i < cycles; i++ {
			pool.Put(pool.Get(48, 48, 48, 2))
		}
	})
	s.add("grid.pool_cycle_ns", d.Seconds()*1e9/cycles)
}

type nopLane struct{}

func (nopLane) RunShot(int) error { return nil }
func (nopLane) SetWorkers(int)    {}

// probeBatch times the batch engine's own dispatch with lanes that do
// nothing.
func probeBatch(sz probeSizes, s samples) error {
	var err error
	d := timeIt(func() {
		_, err = batch.Run(batch.Config{Shots: sz.nopShots, Concurrency: min(2, workers())}, batch.Funcs{
			Precompute: func(int) error { return nil },
			NewLane:    func(int) (batch.Lane, error) { return nopLane{}, nil },
		})
	})
	s.add("batch.dispatch_us_per_shot", d.Seconds()*1e6/float64(sz.nopShots))
	return err
}

// probeCheckpoint takes a checkpoint of a one-shot elastic survey through
// the public resume API and times its codec, then the resumable run
// against the plain one.
func probeCheckpoint(sz probeSizes, s samples) error {
	p := problem{Physics: "elastic", SO: 4, N: sz.ckptN, NBL: 4, Steps: 16, Sources: 1}
	sc := schedule{Kind: "wtb-pipelined", TT: 4, TileX: 16, TileY: 16, BlockX: 8, BlockY: 8}
	mid := float64(p.N/2) * spacing
	in := inputs{}
	sv, err := wavesim.NewSurvey(in.options(p, nil),
		[]wavesim.Shot{{Sources: []wavesim.Coord{{mid + 1.3, mid + 2.1, mid + 0.7}}}}, wavesim.SurveyOptions{Concurrency: 1})
	if err != nil {
		return err
	}
	var ck *wavesim.ShotCheckpoint
	resumable := func() error {
		_, err := sv.RunResumable(context.Background(), sc.wavesim(), wavesim.ResumeOptions{
			EveryTiles:   2,
			OnCheckpoint: func(c *wavesim.ShotCheckpoint) error { ck = c; return nil },
		})
		return err
	}
	if err := resumable(); err != nil { // warm-up, and the checkpoint to encode
		return err
	}
	if ck == nil {
		return fmt.Errorf("no checkpoint taken")
	}
	var buf bytes.Buffer
	if err := ck.Encode(&buf); err != nil {
		return err
	}
	encoded := buf.Bytes()
	mb := float64(len(encoded)) / 1e6
	s.add("wavesim.ckpt_bytes", float64(len(encoded)))
	s.add("wavesim.ckpt_encode_mbs", mb/medianOf(3, func() {
		buf.Reset()
		err = ck.Encode(&buf)
	}))
	if err != nil {
		return err
	}
	s.add("wavesim.ckpt_decode_mbs", mb/medianOf(3, func() {
		_, err = wavesim.DecodeShotCheckpoint(bytes.NewReader(encoded))
	}))
	if err != nil {
		return err
	}

	with := medianOf(3, func() { err = resumable() })
	if err != nil {
		return err
	}
	plain := medianOf(3, func() { _, err = sv.Run(sc.wavesim()) })
	s.add("wavesim.resumable_over_run", with/plain)
	return err
}

// probeSnapshot times the verify snapshot codec on nine grids in memory.
func probeSnapshot(sz probeSizes, s samples) error {
	fields := map[string]*grid.Grid{}
	var total float64
	for i := 0; i < 9; i++ {
		g := grid.New(sz.snapN, sz.snapN, sz.snapN, 2)
		g.Fill(float32(i) + 0.5)
		fields[fmt.Sprintf("f%d", i)] = g
		total += float64(len(g.Data)) * 4
	}
	var buf bytes.Buffer
	var err error
	s.add("verify.snapshot_write_mbs", total/1e6/medianOf(3, func() {
		buf.Reset()
		err = verify.WriteSnapshot(&buf, fields)
	}))
	if err != nil {
		return err
	}
	s.add("verify.snapshot_read_mbs", total/1e6/medianOf(3, func() {
		_, err = verify.ReadSnapshot(bytes.NewReader(buf.Bytes()))
	}))
	return err
}

// probeDist runs an acoustic problem decomposed over two ranks, exchanging
// halos every step and every fourth step.
func probeDist(sz probeSizes, s samples) error {
	p := problem{Physics: "acoustic", SO: 4, N: sz.distN, NBL: 4, Steps: 8}
	geom := geometry(p, cflDt(p))
	vp := model.Layered(p.zmax(), layers...)
	mid := float64(p.N/2) * spacing
	src := &sparse.Points{Coords: []sparse.Coord{{mid + 1.3, mid + 2.1, mid + 0.7}}}
	wavs := [][]float32{wavelet.RickerSeries(sourceF0, geom.Nt, geom.Dt, sourceAmp)}
	work := float64(p.points()) * float64(p.Steps) / 1e9
	for _, m := range []struct {
		name string
		cfg  dist.Config
	}{
		{"dist.perstep_gpts", dist.Config{Ranks: 2, Mode: dist.PerStep, BlockX: 8, BlockY: 8}},
		{"dist.deephalo_gpts", dist.Config{Ranks: 2, Mode: dist.DeepHalo, Depth: 4, TileX: 16, TileY: 16, BlockX: 8, BlockY: 8}},
	} {
		c, err := dist.NewAcousticCluster(m.cfg, geom, p.SO, vp, src, wavs)
		if err != nil {
			return err
		}
		d := timeIt(func() { err = c.Run() })
		if err != nil {
			return err
		}
		s.add(m.name, work/d.Seconds())
	}
	return nil
}
