package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"wavetile/internal/serve"
	"wavetile/wavesim"
)

// The traced pass produces every per-layer metric in one run, because the
// benchmark contract has a --trace 1 run report every per_layer metric of
// BENCHMARK.json whatever the workload. Three traced sections — a shot, a
// survey and the service — put spans around the calls into each layer's
// public functions, and fixed probes (probes.go) time the layers no section
// isolates. The section of the selected workload's kind runs that workload's
// own inputs; the other two run the probe-scale workloads below, so a metric
// always has the same source and a workload changes only the inputs that
// source sees.

// probeWorkloads derives the probe-scale workloads from the table.
func probeWorkloads(table []workload, scale string) (shot, survey, small, ckpt workload) {
	shot, _ = findWorkload(table, "shot_acoustic_wtb")
	survey, _ = findWorkload(table, "survey_many_small")
	small, _ = findWorkload(table, "serve_small_jobs")
	ckpt, _ = findWorkload(table, "serve_ckpt_jobs")
	shot.Name, survey.Name, small.Name, ckpt.Name = "probe_shot", "probe_survey", "probe_serve_small", "probe_serve_ckpt"
	if scale == "full" {
		shot.Problem.N, shot.Problem.Steps = 160, 16
		survey.Shots = 64
		small.Jobs = 32
		ckpt.Problem.N, ckpt.Problem.NBL, ckpt.Problem.Steps = 32, 4, 32
		ckpt.Sched.TT = 4
	}
	ckpt.Jobs = 4
	return shot, survey, small, ckpt
}

// probeEnv is e with a probe workload and inputs drawn from the same seed.
func (e *env) probeEnv(probe workload) (*env, error) {
	in, err := generate(probe, e.seed)
	if err != nil {
		return nil, err
	}
	sub := *e
	sub.w, sub.in, sub.probe = probe, in, true
	return &sub, nil
}

// runTraced is the traced pass of one workload.
func runTraced(e *env, table []workload) (*result, error) {
	res := newResult()
	e.rec = newRecorder()
	shotW, surveyW, smallW, ckptW := probeWorkloads(table, e.scale)

	type section struct {
		kind  string
		probe workload
		run   func(*env, *result) (overhead float64, err error)
	}
	for _, s := range []section{
		{kindShot, shotW, shotSection},
		{kindSurvey, surveyW, surveySection},
		{kindServe, smallW, func(se *env, r *result) (float64, error) { return serveSection(se, r, ckptW) }},
	} {
		se := e
		if e.w.Kind != s.kind {
			var err error
			if se, err = e.probeEnv(s.probe); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		overhead, err := s.run(se, res)
		if err != nil {
			return nil, fmt.Errorf("%s section (%s): %w", s.kind, se.w.Name, err)
		}
		if !se.probe {
			res.samples.add("trace.overhead_frac", overhead)
		}
		e.logf("  %s section on %s: %.2fs", s.kind, se.w.Name, time.Since(t0).Seconds())
	}

	t0 := time.Now()
	if err := runProbes(e, res, shotW); err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	e.logf("  probes: %.2fs", time.Since(t0).Seconds())
	res.samples.add("trace.spans", float64(len(e.rec.snapshot())))
	return res, nil
}

// shotSection runs one shot three ways: through wavesim (the untraced
// end-to-end path), assembled from the layer constructors with a span per
// layer call and per Step, and the same assembly again untraced. All three
// records must be bitwise equal.
func shotSection(e *env, res *result) (float64, error) {
	p := e.w.Problem
	sources := e.in.Shots[0]

	t0 := time.Now()
	sim, err := wavesim.New(e.in.options(p, sources))
	if err != nil {
		return 0, err
	}
	res.samples.add("wavesim.new_s", time.Since(t0).Seconds())
	runtime.GC() // here and below: no collection of set-up garbage inside a timed run
	t0 = time.Now()
	pub, err := sim.Run(e.w.Sched.wavesim())
	if err != nil {
		return 0, err
	}
	pubWall := time.Since(t0)
	res.attempted++
	if err := checkRecord(pub.Receivers); err != nil {
		res.fail("%s: %v", e.w.Name, err)
	}
	if !e.probe {
		res.recordFNV = fnvRecord(pub.Receivers)
	}
	dt := sim.Dt()
	sim = nil

	rec := e.rec
	root := rec.begin(0, "wavemark", "shot "+e.w.Name, 0)
	asm, err := assemble(rec, root, 0, p, dt, sources, e.in.Receivers)
	if err != nil {
		return 0, err
	}
	s := rec.begin(root, "wave", "Reset", 0)
	asm.reset()
	rec.end(s)
	s = rec.begin(root, "wavemark", "runtime.GC", 0)
	runtime.GC()
	rec.end(s)
	run := rec.begin(root, "tiling", "tiling.Run "+e.w.Sched.String(), 0)
	err = e.w.Sched.run(&tracedProp{Propagator: asm.prop, rec: rec, parent: run})
	rec.end(run)
	if err != nil {
		return 0, err
	}
	s = rec.begin(root, "wave", "SparseOps.Receivers", 0)
	traced, err := asm.ops.Receivers()
	rec.end(s)
	rec.end(root)
	if err != nil {
		return 0, err
	}

	asm.reset()
	runtime.GC()
	t0 = time.Now()
	if err := e.w.Sched.run(asm.prop); err != nil {
		return 0, err
	}
	directWall := time.Since(t0)
	direct, err := asm.ops.Receivers()
	if err != nil {
		return 0, err
	}
	if !sameRecord(traced, pub.Receivers) || !sameRecord(direct, pub.Receivers) {
		res.fail("%s: the layer assembly's record differs from wavesim's", e.w.Name)
	}

	var rootSpan, runSpan span
	var steps int
	var busy, built time.Duration
	spans := rec.snapshot()
	for _, sp := range spans {
		switch {
		case sp.ID == root:
			rootSpan = sp
		case sp.ID == run:
			runSpan = sp
		case sp.Parent == run:
			steps++
			busy += sp.End - sp.Start
		case sp.Parent == root && strings.HasPrefix(sp.Name, "wave.New"):
			built = sp.End - sp.Start
		}
	}
	// Shares are of the time the traced shot spent inside the layers: the
	// shot span minus the harness's own self time (its forced collection).
	self := selfTimes(spans, root)
	total := (rootSpan.End - rootSpan.Start - self["wavemark"]).Seconds()
	res.samples.add("model.build_frac", self["model"].Seconds()/total)
	res.samples.add("wave.new_frac", built.Seconds()/total)
	res.samples.add("wave.step_frac", busy.Seconds()/total)
	res.samples.add("tiling.self_frac", self["tiling"].Seconds()/total)
	res.samples.add("tiling.self_s", self["tiling"].Seconds())
	res.samples.add("tiling.step_calls", float64(steps))
	res.samples.add("tiling.step_busy_s", busy.Seconds())
	res.samples.add("wavesim.run_over_tiling", pubWall.Seconds()/directWall.Seconds())
	return (runSpan.End-runSpan.Start).Seconds()/directWall.Seconds() - 1, nil
}

// surveySection runs a survey untraced and traced, with one span per shot
// built from the OnShot callback's timestamps, and a wavesim.New loop over
// the first shots as the sequential baseline and the verification oracle.
func surveySection(e *env, res *result) (float64, error) {
	p := e.w.Problem
	base := e.in.options(p, nil)
	shots := e.in.surveyShots()
	lanes := min(e.w.Lanes, workers())
	ws := e.w.Sched.wavesim()

	var tracing atomic.Bool
	var root spanID
	var mu sync.Mutex
	var busy time.Duration
	onShot := func(shot int, r *wavesim.Result) {
		if !tracing.Load() {
			return
		}
		end := time.Now()
		e.rec.add(root, "wavesim", fmt.Sprintf("shot %d", shot), shot, end.Add(-r.Elapsed), end)
		mu.Lock()
		busy += r.Elapsed
		mu.Unlock()
	}
	t0 := time.Now()
	sv, err := wavesim.NewSurvey(base, shots, wavesim.SurveyOptions{Concurrency: lanes, OnShot: onShot})
	if err != nil {
		return 0, err
	}
	res.samples.add("wavesim.newsurvey_s", time.Since(t0).Seconds())
	if _, err := sv.Run(ws); err != nil { // fills the grid pool
		return 0, err
	}

	t0 = time.Now()
	plain, err := sv.Run(ws)
	if err != nil {
		return 0, err
	}
	plainWall := time.Since(t0)

	root = e.rec.begin(0, "batch", "Survey.Run "+e.w.Name, 0)
	tracing.Store(true) // publishes root to the lanes' callbacks
	t0 = time.Now()
	traced, err := sv.Run(ws)
	tracedWall := time.Since(t0)
	e.rec.end(root)
	tracing.Store(false)
	if err != nil {
		return 0, err
	}

	nseq := min(32, len(shots))
	t0 = time.Now()
	for i := 0; i < nseq; i++ {
		sim, err := wavesim.New(e.in.options(p, shots[i].Sources))
		if err != nil {
			return 0, err
		}
		run, err := sim.Run(ws)
		if err != nil {
			return 0, err
		}
		res.attempted++
		if err := checkRecord(run.Receivers); err != nil {
			res.fail("%s shot %d: %v", e.w.Name, i, err)
		} else if !sameRecord(plain.Shots[i].Receivers, run.Receivers) || !sameRecord(traced.Shots[i].Receivers, run.Receivers) {
			res.fail("%s shot %d: survey record differs from wavesim.New", e.w.Name, i)
		}
	}
	seqPerShot := time.Since(t0).Seconds() / float64(nseq)
	if !e.probe {
		res.recordFNV = surveyFNV(plain)
	}

	n := float64(len(shots))
	res.samples.add("batch.shots_per_s", n/plainWall.Seconds())
	res.samples.add("batch.precompute_s", plain.Precompute.Seconds())
	res.samples.add("batch.pool_hit_ratio", float64(plain.PoolHits)/float64(max(1, plain.PoolHits+plain.PoolMisses)))
	res.samples.add("batch.survey_over_seq", seqPerShot/(plainWall.Seconds()/n))
	laneTime := float64(traced.Concurrency) * (tracedWall - traced.Precompute).Seconds()
	res.samples.add("batch.lane_idle_frac", 1-busy.Seconds()/laneTime)
	return tracedWall.Seconds()/plainWall.Seconds() - 1, nil
}

// serveSection drives the service with the closed-loop clients: an
// untraced and a traced round of the primary workload for the client-side
// numbers, then the checkpointing workload with and without a checkpoint
// directory, and a crash-and-resume.
func serveSection(e *env, res *result, ckptProbe workload) (float64, error) {
	primary, err := serveRounds(e, res)
	if err != nil {
		return 0, err
	}
	plain, traced := primary.plain, primary.traced
	if !e.probe && plain.record0 != nil {
		res.recordFNV = fnvRecord(plain.record0...)
	}

	var accepted, queue []float64
	var ndjson int64
	var compute time.Duration
	for _, j := range plain.jobs {
		accepted = append(accepted, j.accepted.Seconds()*1e3)
		ndjson += j.bytes
		compute += j.compute
	}
	for _, j := range traced.jobs {
		queue = append(queue, j.queue.Seconds()*1e3)
	}
	njobs := float64(len(plain.jobs))
	plain.clientView(res.samples, "serve.", e.w.Shots)
	res.samples.add("serve.submit_p50_ms", median(accepted))
	res.samples.add("serve.queue_wait_p50_ms", median(queue))
	res.samples.add("serve.stream_mbs", float64(ndjson)/1e6/plain.wall.Seconds())
	res.samples.add("serve.ndjson_bytes_per_job", float64(ndjson)/max(1, njobs))
	res.samples.add("serve.rejected", float64(plain.rejected+traced.rejected))
	res.samples.add("serve.overhead_frac", 1-compute.Seconds()/(float64(primary.sr.runners)*plain.wall.Seconds()))

	var decode []float64
	for i := 0; i < 16; i++ {
		t0 := time.Now()
		js, err := serve.DecodeJobSpec(strings.NewReader(string(e.in.Specs[0])))
		if err == nil {
			_, err = js.Build(serve.Limits{})
		}
		if err != nil {
			return 0, err
		}
		decode = append(decode, float64(time.Since(t0).Nanoseconds())/1e3)
	}
	res.samples.add("serve.decode_build_us", median(decode))

	// Checkpointing: the selected workload's own rounds when it checkpoints,
	// else the probe's.
	ce, with := e, primary
	if e.w.CkptEveryTiles == 0 {
		if ce, err = e.probeEnv(ckptProbe); err != nil {
			return 0, err
		}
		if with, err = serveRounds(ce, res); err != nil {
			return 0, err
		}
	}
	without, err := with.sr.plainRound(ce.w.Shots)
	if err != nil {
		return 0, err
	}
	res.absorb(without)
	res.samples.add("serve.ckpt_overhead_frac", with.plain.wall.Seconds()/without.wall.Seconds()-1)
	res.samples.add("serve.ckpt_writes", float64(with.traced.ckptWrites)/float64(with.traced.attempted))
	res.samples.add("serve.ckpt_bytes", float64(with.traced.ckptBytes)/float64(with.traced.attempted))
	resume, err := with.sr.resume(ce)
	if err != nil {
		return 0, err
	}
	res.samples.add("serve.resume_s", resume.Seconds())
	return traced.wall.Seconds()/plain.wall.Seconds() - 1, nil
}

// roundPair is an untraced and a traced round of one serve workload.
type roundPair struct {
	sr            *serveRun
	plain, traced *roundStats
}

// serveRounds runs the untraced and the traced round of e's workload, under
// a checkpoint directory when the workload checkpoints.
func serveRounds(e *env, res *result) (*roundPair, error) {
	sr, err := newServeRun(e)
	if err != nil {
		return nil, err
	}
	pair := &roundPair{sr: sr}

	err = sr.withCkptDir(e, func() (err error) {
		pair.plain, err = sr.plainRound(e.w.Shots)
		return err
	})
	if err != nil {
		return nil, err
	}
	err = sr.withCkptDir(e, func() (err error) {
		sr.parent = e.rec.begin(0, "wavemark", "round "+e.w.Name, 0)
		pair.traced, err = sr.round(e.w.Shots)
		e.rec.end(sr.parent)
		return err
	})
	if err != nil {
		return nil, err
	}
	res.absorb(pair.plain)
	res.absorb(pair.traced)
	return pair, nil
}

// plainRound runs one round with the recorder off.
func (sr *serveRun) plainRound(shots int) (*roundStats, error) {
	rec := sr.rec
	sr.rec = nil
	defer func() { sr.rec = rec }()
	return sr.round(shots)
}

// resume measures Server.Resume: a server that abandons every job after
// its first checkpoint leaves one job file each; a fresh server over the
// same directory reloads them.
func (sr *serveRun) resume(e *env) (time.Duration, error) {
	if err := os.MkdirAll(e.tmp, 0o755); err != nil {
		return 0, err
	}
	dir, err := os.MkdirTemp(e.tmp, "resume-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	cfg := serve.Config{Runners: 1, CheckpointDir: dir, CheckpointEveryTiles: e.w.CkptEveryTiles, CrashAfterCheckpoints: 1}

	crashed := serve.New(cfg)
	ts := httptest.NewServer(crashed.Handler())
	client, tr := newClient()
	stop := func() {
		tr.CloseIdleConnections()
		ts.Close()
		crashed.Close()
	}
	for _, spec := range sr.specs {
		if _, _, err := submit(client, ts.URL, spec); err != nil {
			stop()
			return 0, err
		}
	}
	jobs := len(sr.specs)
	deadline := time.Now().Add(60 * time.Second)
	for interrupted := 0; interrupted < jobs; {
		if time.Now().After(deadline) {
			stop()
			return 0, fmt.Errorf("resume: %d of %d jobs reached their first checkpoint in 60s", interrupted, jobs)
		}
		time.Sleep(2 * time.Millisecond)
		interrupted = 0
		for _, j := range crashed.Jobs() {
			if j.State == serve.StateInterrupted {
				interrupted++
			}
		}
	}
	stop()

	cfg.CrashAfterCheckpoints = 0
	fresh := serve.New(cfg)
	defer fresh.Close()
	t0 := time.Now()
	n, err := fresh.Resume()
	d := time.Since(t0)
	if err != nil {
		return 0, err
	}
	if n != jobs {
		return 0, fmt.Errorf("resume: reloaded %d of %d jobs", n, jobs)
	}
	return d, nil
}
