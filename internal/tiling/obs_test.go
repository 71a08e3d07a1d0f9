package tiling

import (
	"strings"
	"testing"
	"time"

	"wavetile/internal/obs"
)

// TestRunWTBObservability runs both graph drains against an installed
// registry + tracer and checks the one vocabulary they share: the
// wtb_time_tiles counter, a time-tile span per time tile, and a task span
// per executed task, counted by the graph's own sched_tasks.
func TestRunWTBObservability(t *testing.T) {
	for _, kind := range []Kind{WTB, WTBPipelined} {
		r := obs.NewRegistry()
		restore := obs.Swap(r)
		tr := r.StartTrace()

		m := newMock(20, 20, 9, 2, []int{0})
		cfg := Config{TT: 4, TileX: 8, TileY: 8, BlockX: 4, BlockY: 4}
		err := Run(m, kind, cfg, 0, m.nt, nil)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		m.assertExactlyOnce(t)

		snap := r.Snapshot()
		wantTT := int64(3) // ceil(9/4)
		if got := snap.Counters["wtb_time_tiles"]; got != wantTT {
			t.Fatalf("kind %d: wtb_time_tiles = %d, want %d", kind, got, wantTT)
		}
		if snap.Counters["sched_tasks"] <= 0 || snap.Counters["sched_tasks_empty"] <= 0 {
			t.Fatalf("kind %d: tasks %d / empty tasks %d not counted", kind,
				snap.Counters["sched_tasks"], snap.Counters["sched_tasks_empty"])
		}

		var timeTileSpans, taskSpans int
		for _, ev := range tr.Events() {
			switch {
			case strings.HasPrefix(ev.Name, "time-tile"):
				timeTileSpans++
				if ev.Args["t0"] == nil || ev.Args["t1"] == nil {
					t.Fatalf("time-tile span missing args: %+v", ev.Args)
				}
			case strings.HasPrefix(ev.Name, "task"):
				taskSpans++
				if ev.Args["t"] == nil || ev.Args["bx"] == nil {
					t.Fatalf("task span missing args: %+v", ev.Args)
				}
			}
		}
		if int64(timeTileSpans) != wantTT {
			t.Fatalf("kind %d: %d time-tile spans, want %d", kind, timeTileSpans, wantTT)
		}
		if int64(taskSpans) != snap.Counters["sched_tasks"] {
			t.Fatalf("kind %d: %d task spans vs %d counted tasks", kind, taskSpans, snap.Counters["sched_tasks"])
		}
	}
}

// TestRunSpatialObservability checks the unfused sparse pass is attributed
// to PhaseSparse and per-step spans are recorded.
func TestRunSpatialObservability(t *testing.T) {
	r := obs.NewRegistry()
	restore := obs.Swap(r)
	defer restore()
	tr := r.StartTrace()

	m := newMock(16, 16, 5, 2, []int{0})
	m.sparseDelay = 200 * time.Microsecond
	RunSpatial(m, 4, 4, false)
	m.assertExactlyOnce(t)

	snap := r.Snapshot()
	if d := snap.Phases[obs.PhaseSparse.String()]; d < 5*m.sparseDelay {
		t.Fatalf("sparse phase = %v, want ≥ %v", d, 5*m.sparseDelay)
	}
	steps := 0
	for _, ev := range tr.Events() {
		if strings.HasPrefix(ev.Name, "step") {
			steps++
		}
	}
	if steps != 5 {
		t.Fatalf("%d step spans, want 5", steps)
	}
}

// TestSchedulesUnobservedUnchanged re-runs both schedules with the registry
// removed: coverage must be identical (the instrumentation must not alter
// scheduling decisions).
func TestSchedulesUnobservedUnchanged(t *testing.T) {
	restore := obs.Swap(nil)
	defer restore()
	m := newMock(20, 20, 9, 2, []int{0})
	if err := RunWTB(m, Config{TT: 4, TileX: 8, TileY: 8, BlockX: 4, BlockY: 4}); err != nil {
		t.Fatal(err)
	}
	m.assertExactlyOnce(t)
}
