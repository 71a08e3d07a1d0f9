package wavesim

import (
	"context"
	"io"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"wavetile/internal/obs"
)

// surveyBase is smallOpts without sources: the shared-model side of a
// survey.
func surveyBase(phys Physics) Options {
	o := smallOpts(phys)
	o.Sources = nil
	return o
}

// surveyShots places nshots small off-the-grid source arrays marching
// along x (a miniature sail line).
func surveyShots(nshots int) []Shot {
	shots := make([]Shot, nshots)
	for s := range shots {
		dx := 12.0 * float64(s)
		shots[s] = Shot{Sources: []Coord{
			{120.3 + dx, 150.7, 110.1},
			{150.9 + dx, 150.7, 110.1},
			{135.6 + dx, 170.2, 110.1},
		}}
	}
	return shots
}

// sequentialRecords runs the survey the pre-batch way — one wavesim.New per
// shot — and returns each shot's receiver record. This is the oracle the
// batched engine must match bitwise.
func sequentialRecords(t *testing.T, base Options, shots []Shot, sched Schedule) [][][]float32 {
	t.Helper()
	out := make([][][]float32, len(shots))
	for i, sh := range shots {
		o := base
		o.Sources = sh.Sources
		o.SourceWavelets = sh.SourceWavelets
		sim, err := New(o)
		if err != nil {
			t.Fatalf("shot %d: %v", i, err)
		}
		res, err := sim.Run(sched)
		if err != nil {
			t.Fatalf("shot %d: %v", i, err)
		}
		out[i] = res.Receivers
	}
	return out
}

func assertRecordsEqual(t *testing.T, want, got [][]float32, shot int) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("shot %d: %d vs %d trace steps", shot, len(want), len(got))
	}
	for ti := range want {
		for r := range want[ti] {
			if want[ti][r] != got[ti][r] {
				t.Fatalf("shot %d receiver %d t=%d: sequential %g vs batched %g",
					shot, r, ti, want[ti][r], got[ti][r])
			}
		}
	}
}

// TestSurveyMatchesSequentialBitwise is the batch oracle: batched, pooled,
// concurrent shot execution must be bitwise identical to the per-shot
// wavesim.New loop for every physics × schedule combination.
func TestSurveyMatchesSequentialBitwise(t *testing.T) {
	const nshots = 3
	physics := []Physics{Acoustic, TTI, Elastic}
	if testing.Short() {
		// The race gate's size: TTI adds no lane or pool code the other two
		// do not run, only the slowest kernel.
		physics = []Physics{Acoustic, Elastic}
	}
	for _, phys := range physics {
		t.Run(phys.String(), func(t *testing.T) {
			base := surveyBase(phys)
			shots := surveyShots(nshots)
			sv, err := NewSurvey(base, shots, SurveyOptions{Concurrency: 2})
			if err != nil {
				t.Fatal(err)
			}
			mt := sv.template.MinTile()
			scheds := []Schedule{
				Spatial{BlockX: 8, BlockY: 8},
				WTB{TimeTile: 4, TileX: 3 * mt, TileY: 2 * mt, BlockX: 8, BlockY: 8},
				WTBPipelined{TimeTile: 4, TileX: 3 * mt, TileY: 2 * mt, BlockX: 8, BlockY: 8},
			}
			for _, sched := range scheds {
				t.Run(sched.schedule(), func(t *testing.T) {
					want := sequentialRecords(t, base, shots, sched)
					res, err := sv.Run(sched)
					if err != nil {
						t.Fatal(err)
					}
					if res.Concurrency != 2 {
						t.Fatalf("Concurrency = %d, want 2", res.Concurrency)
					}
					for i := range shots {
						if res.Shots[i] == nil {
							t.Fatalf("shot %d has no result", i)
						}
						assertRecordsEqual(t, want[i], res.Shots[i].Receivers, i)
					}
				})
			}
		})
	}
}

// TestSurveyRerunPoolsGrids asserts the pooling contract: a Survey's
// second Run draws every lane wavefield from the pool (all hits, no
// misses) and still matches the oracle bitwise.
func TestSurveyRerunPoolsGrids(t *testing.T) {
	base := surveyBase(Acoustic)
	shots := surveyShots(2)
	sv, err := NewSurvey(base, shots, SurveyOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := Spatial{BlockX: 8, BlockY: 8}
	first, err := sv.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if first.PoolMisses == 0 {
		t.Fatal("first run should allocate lane wavefields (misses > 0)")
	}
	second, err := sv.Run(sched)
	if err != nil {
		t.Fatal(err)
	}
	if second.PoolMisses != 0 || second.PoolHits == 0 {
		t.Fatalf("second run hits=%d misses=%d, want all-hit steady state",
			second.PoolHits, second.PoolMisses)
	}
	want := sequentialRecords(t, base, shots, sched)
	for i := range shots {
		assertRecordsEqual(t, want[i], second.Shots[i].Receivers, i)
	}
}

// TestResetRerunBitwise pins the Reset reuse semantics the batch engine
// depends on: a Simulation re-run after Reset produces bitwise-identical
// receiver records and final wavefields.
func TestResetRerunBitwise(t *testing.T) {
	for _, phys := range []Physics{Acoustic, TTI, Elastic} {
		t.Run(phys.String(), func(t *testing.T) {
			sim, err := New(smallOpts(phys))
			if err != nil {
				t.Fatal(err)
			}
			sched := Spatial{BlockX: 8, BlockY: 8}
			first, err := sim.Run(sched)
			if err != nil {
				t.Fatal(err)
			}
			wf1 := sim.WavefieldSlice(18)
			// Run calls Reset itself; calling it again must be harmless.
			sim.Reset()
			second, err := sim.Run(sched)
			if err != nil {
				t.Fatal(err)
			}
			wf2 := sim.WavefieldSlice(18)
			assertRecordsEqual(t, first.Receivers, second.Receivers, 0)
			for x := range wf1 {
				for y := range wf1[x] {
					if wf1[x][y] != wf2[x][y] {
						t.Fatalf("wavefield (%d,%d): %g vs %g after Reset re-run",
							x, y, wf1[x][y], wf2[x][y])
					}
				}
			}
		})
	}
}

// TestSurveyAutotune smoke-tests the K autotune path end to end: all shots
// complete exactly once and probes were recorded.
func TestSurveyAutotune(t *testing.T) {
	base := surveyBase(Acoustic)
	shots := surveyShots(6)
	res, err := RunSurvey(base, shots, Spatial{BlockX: 8, BlockY: 8},
		SurveyOptions{MaxConcurrency: 2, ProbeShots: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Probes) == 0 {
		t.Fatal("autotune recorded no probes")
	}
	for i, r := range res.Shots {
		if r == nil || r.Receivers == nil {
			t.Fatalf("shot %d missing result", i)
		}
	}
	if res.Concurrency < 1 {
		t.Fatalf("Concurrency = %d", res.Concurrency)
	}
}

// TestSurveySteadyStateAllocations verifies the headline perf claim: once
// a lane is warm, running one more shot allocates no wavefield-sized
// buffers — per-shot heap growth stays far below a single wavefield grid
// (the only allocations left are the returned receiver traces and
// schedule bookkeeping).
func TestSurveySteadyStateAllocations(t *testing.T) {
	base := surveyBase(Acoustic)
	shots := surveyShots(2)
	sv, err := NewSurvey(base, shots, SurveyOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	sched := Spatial{BlockX: 8, BlockY: 8}
	for i := range shots {
		if err := sv.precomputeShot(i); err != nil {
			t.Fatal(err)
		}
	}
	lane := &surveyLane{ctx: context.Background(), sv: sv, sim: sv.fork(), sched: sched, out: make([]*Result, len(shots))}
	defer sv.release(lane.sim)
	lane.SetWorkers(1)
	// Warm up: first shots touch lazy paths (sampler gather buffers etc.).
	for i := 0; i < 2; i++ {
		if err := lane.RunShot(i % len(shots)); err != nil {
			t.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const rounds = 5
	for i := 0; i < rounds; i++ {
		if err := lane.RunShot(i % len(shots)); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perShot := int64(after.TotalAlloc-before.TotalAlloc) / rounds
	gridBytes := int64(len(lane.sim.acoustic.U[0].Data)) * 4
	if perShot >= gridBytes {
		t.Fatalf("steady-state shot allocates %d B — at least one wavefield grid (%d B); pooling is broken",
			perShot, gridBytes)
	}
	t.Logf("steady-state allocation: %d B/shot (wavefield grid = %d B)", perShot, gridBytes)
}

// TestSurveyCountersOnMetrics asserts the survey counters render on the
// Prometheus /metrics endpoint after a batched run.
func TestSurveyCountersOnMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	defer obs.Swap(reg)()
	base := surveyBase(Acoustic)
	sv, err := NewSurvey(base, surveyShots(2), SurveyOptions{Concurrency: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.Run(Spatial{BlockX: 8, BlockY: 8}); err != nil {
		t.Fatal(err)
	}
	// Re-run so pool hits are nonzero and every counter family appears.
	if _, err := sv.Run(Spatial{BlockX: 8, BlockY: 8}); err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest("GET", "/metrics", nil)
	rec := httptest.NewRecorder()
	obs.DebugHandler().ServeHTTP(rec, req)
	body, _ := io.ReadAll(rec.Result().Body)
	text := string(body)
	for _, metric := range []string{
		"wavetile_survey_shots_done",
		"wavetile_survey_pool_hits",
		"wavetile_survey_pool_misses",
		"wavetile_survey_precompute_shots",
		"wavetile_survey_precompute_reused",
	} {
		if !strings.Contains(text, metric) {
			t.Fatalf("/metrics missing %s; body:\n%s", metric, text)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["survey_shots_done"]; got != 4 {
		t.Fatalf("survey_shots_done = %d, want 4", got)
	}
	if got := snap.Counters["survey_pool_hits"]; got == 0 {
		t.Fatal("survey_pool_hits = 0 after a re-run")
	}
}

// TestSurveyValidation covers the construction error surface.
func TestSurveyValidation(t *testing.T) {
	base := surveyBase(Acoustic)
	if _, err := NewSurvey(base, nil, SurveyOptions{}); err == nil {
		t.Fatal("empty shot list accepted")
	}
	withSrc := base
	withSrc.Sources = []Coord{{100, 100, 100}}
	if _, err := NewSurvey(withSrc, surveyShots(1), SurveyOptions{}); err == nil {
		t.Fatal("base options with sources accepted")
	}
	bad := surveyShots(1)
	bad[0].Sources[0] = Coord{-50, 0, 0}
	if _, err := NewSurvey(base, bad, SurveyOptions{}); err == nil {
		t.Fatal("out-of-grid shot source accepted")
	}
	short := surveyShots(1)
	short[0].SourceWavelets = [][]float32{make([]float32, 16)}
	if _, err := NewSurvey(base, short, SurveyOptions{}); err == nil {
		t.Fatal("wavelet/source count mismatch accepted")
	}
}

// TestSurveyOnShotCallback checks per-shot completion callbacks fire once
// per shot, under concurrency.
func TestSurveyOnShotCallback(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	base := surveyBase(Acoustic)
	shots := surveyShots(4)
	_, err := RunSurvey(base, shots, Spatial{BlockX: 8, BlockY: 8}, SurveyOptions{
		Concurrency: 2,
		OnShot: func(shot int, res *Result) {
			mu.Lock()
			seen[shot]++
			mu.Unlock()
			if res == nil || res.Receivers == nil {
				t.Errorf("shot %d callback without result", shot)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range shots {
		if seen[i] != 1 {
			t.Fatalf("shot %d callback fired %d times", i, seen[i])
		}
	}
}
