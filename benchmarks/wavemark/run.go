package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"wavetile/wavesim"
)

// minReps is the least number of timed repetitions of a run, so that every
// timing metric is a median of at least three samples even when one
// repetition outlasts -seconds.
const minReps = 3

// env is one run of one workload: its generated inputs and how long to
// measure. rec is nil in the untraced pass.
type env struct {
	w  workload
	in inputs
	// probe marks a traced section running a probe-scale workload rather
	// than the selected one: its records do not feed the run's record hash.
	probe   bool
	seed    int64
	seconds float64
	scale   string
	tmp     string // scratch directory for checkpoint files, inside the checkout
	rec     *recorder
	log     io.Writer
}

func (e *env) logf(format string, args ...any) { fmt.Fprintf(e.log, format+"\n", args...) }

// result is what one run measured and verified.
type result struct {
	samples   samples
	attempted int // operations: shots, or jobs for a serve workload
	failed    int
	recordFNV uint64 // FNV-64a of the verified receiver record
	notes     []string
}

func newResult() *result { return &result{samples: samples{}} }

// fail counts one failed operation and says why.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.notes) < 16 {
		r.notes = append(r.notes, fmt.Sprintf(format, args...))
	}
}

// timed runs repetitions of rep until the run has measured for e.seconds,
// and at least minReps times. Garbage from the previous repetition and from
// set-up is collected first so that a concurrent collection does not take a
// core from the timed part.
func (e *env) timed(rep func(i int) error) error {
	start := time.Now()
	for i := 0; i < minReps || time.Since(start).Seconds() < e.seconds; i++ {
		runtime.GC()
		if err := rep(i); err != nil {
			return err
		}
	}
	return nil
}

// setups times repetitions of a constructor for setup_s: at least minReps,
// and as many more (up to 15) as fit in a quarter of a second, because a
// set-up of a few milliseconds needs more than three samples for a steady
// median.
func (r *result) setups(build func() (time.Duration, error)) error {
	start := time.Now()
	for i := 0; i < minReps || (i < 15 && time.Since(start).Seconds() < 0.25); i++ {
		d, err := build()
		if err != nil {
			return err
		}
		r.samples.add("setup_s", d.Seconds())
	}
	return nil
}

// finish adds the process-wide metrics every untraced run reports.
func (r *result) finish() error {
	rss, err := peakRSSMB()
	if err != nil {
		return err
	}
	r.samples.add("peak_rss_mb", rss)
	return nil
}

// recordHash folds a receiver record into h bit by bit.
func recordHash(h io.Writer, rec [][]float32) {
	var b [4]byte
	for _, row := range rec {
		for _, v := range row {
			binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
			h.Write(b[:])
		}
	}
}

func fnvRecord(recs ...[][]float32) uint64 {
	h := fnv.New64a()
	for _, rec := range recs {
		recordHash(h, rec)
	}
	return h.Sum64()
}

// surveyFNV hashes every shot's record of a survey run, in shot order.
func surveyFNV(run *wavesim.SurveyResult) uint64 {
	recs := make([][][]float32, len(run.Shots))
	for i, shot := range run.Shots {
		recs[i] = shot.Receivers
	}
	return fnvRecord(recs...)
}

// checkRecord reports why rec is not a usable shot record: it must hold
// only finite values and some signal.
func checkRecord(rec [][]float32) error {
	if len(rec) == 0 {
		return fmt.Errorf("empty record")
	}
	nonzero := false
	for t, row := range rec {
		for r, v := range row {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("receiver %d is %v at step %d", r, v, t)
			}
			nonzero = nonzero || v != 0
		}
	}
	if !nonzero {
		return fmt.Errorf("record is all zero")
	}
	return nil
}

// sameRecord reports whether two records are bitwise equal.
func sameRecord(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for t := range a {
		if len(a[t]) != len(b[t]) {
			return false
		}
		for r := range a[t] {
			if math.Float32bits(a[t][r]) != math.Float32bits(b[t][r]) {
				return false
			}
		}
	}
	return true
}

// runShot measures a shot workload end to end through the public API. One
// repetition is wavesim.New (a setup_s sample) followed by Simulation.Run (a
// wall_s sample) — Run again, while the repetition's runs have lasted less
// than a quarter of -seconds, so that a workload whose constructor costs
// several times its run still gives the median more than three runs. An
// untimed repetition under the reference schedule comes first: it is the
// warm-up — it faults the heap in, which costs the first constructor of a
// process half again its time — and its record is what every timed record
// must equal bit for bit.
func runShot(e *env) (*result, error) {
	res := newResult()
	p := e.w.Problem
	opts := e.in.options(p, e.in.Shots[0])

	sim, err := wavesim.New(opts)
	if err != nil {
		return nil, err
	}
	ref, err := sim.Run(e.w.Ref.wavesim())
	if err != nil {
		return nil, err
	}
	if err := checkRecord(ref.Receivers); err != nil {
		res.fail("reference (%s): %v", e.w.Ref, err)
	}
	res.recordFNV = fnvRecord(ref.Receivers)
	sim = nil

	work := float64(p.points()) * float64(p.Steps)
	err = e.timed(func(i int) error {
		t0 := time.Now()
		sim, err := wavesim.New(opts)
		setup := time.Since(t0)
		if err != nil {
			return err
		}
		res.samples.add("setup_s", setup.Seconds())
		runtime.GC()
		for ran := 0.0; ran == 0 || ran < e.seconds/4; {
			t1 := time.Now()
			run, err := sim.Run(e.w.Sched.wavesim())
			wall := time.Since(t1).Seconds()
			if err != nil {
				return err
			}
			ran += wall
			res.attempted++
			if !sameRecord(run.Receivers, ref.Receivers) {
				res.fail("rep %d: %s record differs from %s", i, e.w.Sched, e.w.Ref)
			}
			res.samples.add("wall_s", wall)
			res.samples.add("gpts", work/wall/1e9)
			e.logf("  rep %d: setup %.4fs run %.4fs %.4f GPts/s kernel %s", i, setup.Seconds(), wall, work/wall/1e9, run.Kernel)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, res.finish()
}

// verifiedShots picks the survey shots checked against wavesim.New: shot 0
// and one drawn from the seed.
func verifiedShots(n int, seed int64) []int {
	if n < 2 {
		return []int{0}
	}
	return []int{0, 1 + int(uint64(seed)*2654435761%uint64(n-1))}
}

// runSurvey measures the survey workload: NewSurvey several times (setup_s),
// one untimed Survey.Run that fills the grid pool, then timed runs. Two
// shots of every run must be bitwise equal to a wavesim.New run of that
// shot alone, and every record must be finite.
func runSurvey(e *env) (*result, error) {
	res := newResult()
	p := e.w.Problem
	base := e.in.options(p, nil)
	shots := e.in.surveyShots()
	sopts := wavesim.SurveyOptions{Concurrency: min(e.w.Lanes, workers())}

	var sv *wavesim.Survey
	err := res.setups(func() (d time.Duration, err error) {
		t0 := time.Now()
		sv, err = wavesim.NewSurvey(base, shots, sopts)
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}

	refs := map[int][][]float32{}
	for _, i := range verifiedShots(len(shots), e.seed) {
		sim, err := wavesim.New(e.in.options(p, shots[i].Sources))
		if err != nil {
			return nil, err
		}
		run, err := sim.Run(e.w.Ref.wavesim())
		if err != nil {
			return nil, err
		}
		if err := checkRecord(run.Receivers); err != nil {
			res.fail("reference shot %d: %v", i, err)
		}
		refs[i] = run.Receivers
	}

	if _, err := sv.Run(e.w.Sched.wavesim()); err != nil {
		return nil, err
	}
	work := float64(p.points()) * float64(p.Steps) * float64(len(shots))
	err = e.timed(func(i int) error {
		t0 := time.Now()
		run, err := sv.Run(e.w.Sched.wavesim())
		wall := time.Since(t0)
		if err != nil {
			return err
		}
		res.attempted += len(shots)
		for s, shot := range run.Shots {
			if want, ok := refs[s]; ok && !sameRecord(shot.Receivers, want) {
				res.fail("run %d shot %d: record differs from wavesim.New", i, s)
			} else if err := checkRecord(shot.Receivers); err != nil {
				res.fail("run %d shot %d: %v", i, s, err)
			}
		}
		res.recordFNV = surveyFNV(run)
		res.samples.add("wall_s", wall.Seconds())
		res.samples.add("gpts", work/wall.Seconds()/1e9)
		res.samples.add("shots_per_s", float64(len(shots))/wall.Seconds())
		e.logf("  run %d: %.4fs %.1f shots/s K=%d pool %d/%d", i, wall.Seconds(),
			float64(len(shots))/wall.Seconds(), run.Concurrency, run.PoolHits, run.PoolHits+run.PoolMisses)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, res.finish()
}
