package wavesim

import (
	"context"
	"log/slog"
	"slices"
	"sync"
	"testing"
	"time"

	"wavetile/internal/obs"
)

// stepsHandler collects the "steps" attribute of every progress record, so
// a test can read back the StepsDone sequence a run left on the registry.
type stepsHandler struct {
	mu    sync.Mutex
	steps []int64
}

func (h *stepsHandler) Enabled(context.Context, slog.Level) bool { return true }
func (h *stepsHandler) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *stepsHandler) WithGroup(string) slog.Handler            { return h }
func (h *stepsHandler) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if a.Key == "steps" {
			h.mu.Lock()
			h.steps = append(h.steps, a.Value.Int64())
			h.mu.Unlock()
		}
		return true
	})
	return nil
}

// TestSurveyShotObsParity pins that there is one run path: a single-shot
// survey (RunResumable with zero ResumeOptions — what Run, RunContext and
// every service job go through) leaves the same accounting on the registry
// as Simulation.Run on the same inputs — step progress, run count, executor
// and graph counters, the unfused sparse phase — and the same receivers.
func TestSurveyShotObsParity(t *testing.T) {
	base := surveyBase(Acoustic)
	shots := surveyShots(1)
	direct := base
	direct.Sources = shots[0].Sources
	sim, err := New(direct)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSurvey(base, shots, SurveyOptions{Concurrency: 1})
	if err != nil {
		t.Fatal(err)
	}
	mt := sim.MinTile()
	wtb := WTB{TimeTile: 4, TileX: 3 * mt, TileY: 2 * mt, BlockX: 8, BlockY: 8}

	// observed runs one shot against a fresh registry with unthrottled
	// progress records and returns what it left there.
	observed := func(run func() (*Result, error)) (obs.Snapshot, []int64, *Result) {
		t.Helper()
		reg := obs.NewRegistry()
		h := &stepsHandler{}
		reg.EnableProgress(slog.New(h), time.Nanosecond)
		defer obs.Swap(reg)()
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		return reg.Snapshot(), h.steps, res
	}

	for _, sched := range []Schedule{
		Spatial{BlockX: 8, BlockY: 8},
		Spatial{BlockX: 8, BlockY: 8, Unfused: true},
		wtb,
		WTBPipelined(wtb),
	} {
		name := sched.schedule()
		if s, ok := sched.(Spatial); ok && s.Unfused {
			name += "-unfused"
		}
		t.Run(name, func(t *testing.T) {
			wantSnap, wantSteps, want := observed(func() (*Result, error) { return sim.Run(sched) })
			gotSnap, gotSteps, got := observed(func() (*Result, error) {
				res, err := sv.RunResumable(context.Background(), sched, ResumeOptions{})
				if err != nil {
					return nil, err
				}
				return res.Shots[0], nil
			})

			if len(wantSteps) == 0 || wantSteps[len(wantSteps)-1] != int64(sim.Steps()) {
				t.Fatalf("Run's progress %v does not end at %d steps", wantSteps, sim.Steps())
			}
			if !slices.Equal(gotSteps, wantSteps) {
				t.Errorf("step progress: survey shot %v, Run %v", gotSteps, wantSteps)
			}
			runs := obs.SeriesName("runs_total", "physics", "acoustic", "schedule", sched.schedule())
			if wantSnap.Counters[runs] != 1 {
				t.Fatalf("Run left %s = %d, want 1", runs, wantSnap.Counters[runs])
			}
			for _, c := range []string{runs, "steps", "points", "wtb_time_tiles", "sched_tasks", "sched_tasks_empty"} {
				if gotSnap.Counters[c] != wantSnap.Counters[c] {
					t.Errorf("counter %s: survey shot %d, Run %d", c, gotSnap.Counters[c], wantSnap.Counters[c])
				}
			}
			if tiled := sched.schedule() != "spatial"; tiled != (wantSnap.Counters["wtb_time_tiles"] > 0) {
				t.Errorf("wtb_time_tiles = %d under %s", wantSnap.Counters["wtb_time_tiles"], name)
			}
			sparse := obs.PhaseSparse.String()
			if unfused := name == "spatial-unfused"; unfused != (wantSnap.Phases[sparse] > 0) || unfused != (gotSnap.Phases[sparse] > 0) {
				t.Errorf("sparse phase under %s: survey shot %v, Run %v", name, gotSnap.Phases[sparse], wantSnap.Phases[sparse])
			}
			if len(want.Receivers) == 0 || len(got.Receivers) != len(want.Receivers) {
				t.Fatalf("receiver rows: survey shot %d, Run %d", len(got.Receivers), len(want.Receivers))
			}
			for ti := range want.Receivers {
				if !slices.Equal(got.Receivers[ti], want.Receivers[ti]) {
					t.Fatalf("receivers differ at t=%d", ti)
				}
			}
		})
	}
}
