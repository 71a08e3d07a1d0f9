package verify

import (
	"testing"

	"wavetile/internal/sched"
)

// elasticFaultScenario is faultScenario's in-place counterpart: the elastic
// propagator has MaxPhaseOffset() > 0, so the task graph uses the same-step
// left/up edge set instead of the ping-pong diagonal one.
func elasticFaultScenario() Scenario {
	s := faultScenario()
	s.Physics = Elastic
	s.NRec = 0
	s.Rec = RecNone
	return s
}

// TestOracleCatchesDroppedEdges proves every dependency-edge class of the
// task graph is load-bearing: with one class deleted from the graph
// (sched.FaultDropEdge), the adversarial scheduler deliberately runs a
// dependent tile before its now-unordered predecessor, and the oracle must
// flag a divergence in both schedules that drain the graph (wtb and
// wtb-pipelined) — while the spatial kinds, which never consult it, stay
// green. Together with TestVerifyScenarios (no fault ⇒ 0 ULP) this shows
// the edge set is sharp: nothing missing, nothing redundant.
func TestOracleCatchesDroppedEdges(t *testing.T) {
	cases := []struct {
		name string
		s    Scenario
		drop sched.EdgeClass
	}{
		// Ping-pong buffering (acoustic): preds at k−1 in own, left, up and
		// diagonal positions.
		{"acoustic/own", faultScenario(), sched.EdgeOwn},
		{"acoustic/left", faultScenario(), sched.EdgeLeft},
		{"acoustic/up", faultScenario(), sched.EdgeUp},
		{"acoustic/diag", faultScenario(), sched.EdgeDiag},
		// In-place phases (elastic): own pred at k−1, left/up preds at the
		// same k (no separate diagonal edge — it is transitively implied).
		{"elastic/own", elasticFaultScenario(), sched.EdgeOwn},
		{"elastic/left", elasticFaultScenario(), sched.EdgeLeft},
		{"elastic/up", elasticFaultScenario(), sched.EdgeUp},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// Sanity: green without the fault.
			rep, err := RunOracle(c.s)
			if err != nil {
				t.Fatalf("fault scenario does not run: %v", err)
			}
			if !rep.OK() {
				t.Fatalf("fault scenario diverges before fault injection: %s", rep)
			}

			sched.FaultDropEdge = c.drop
			defer func() { sched.FaultDropEdge = sched.EdgeNone }()
			rep, err = RunOracle(c.s)
			if err != nil {
				t.Fatalf("oracle errored under dropped edge (want divergence report): %v", err)
			}
			if rep.OK() {
				t.Fatalf("oracle missed dropped %v edge", c.drop)
			}
			caught := map[string]bool{}
			for _, d := range rep.Divergences {
				caught[d.Schedule] = true
				if d.Schedule != "wtb" && d.Schedule != "wtb-pipelined" {
					t.Errorf("dropped graph edge leaked into schedule %q: %s", d.Schedule, d)
				}
			}
			if !caught["wtb"] || !caught["wtb-pipelined"] {
				t.Errorf("dropped %v edge not caught in both graph drains: %s", c.drop, rep)
			}
			t.Logf("dropped %v edge caught: %s", c.drop, &rep.Divergences[0])
		})
	}
}

// TestPipelinedOracleLocalizesFault checks the wtb-pipelined first-divergence
// diagnostics: the adversarial replay is deterministic, so a dropped-edge
// divergence must be localized to its first divergent time tile with a
// nonzero ULP distance, exactly like the WTB skew-fault path.
func TestPipelinedOracleLocalizesFault(t *testing.T) {
	sched.FaultDropEdge = sched.EdgeLeft
	defer func() { sched.FaultDropEdge = sched.EdgeNone }()
	rep, err := RunOracle(faultScenario())
	if err != nil {
		t.Fatalf("oracle errored: %v", err)
	}
	if rep.OK() {
		t.Fatal("oracle missed the dropped left edge")
	}
	var pd *Divergence
	for i := range rep.Divergences {
		if rep.Divergences[i].Schedule == "wtb-pipelined" {
			pd = &rep.Divergences[i]
			break
		}
	}
	if pd == nil {
		t.Fatalf("no wtb-pipelined divergence in report: %s", rep)
	}
	if pd.T0 < 0 || pd.T1 <= pd.T0 {
		t.Errorf("divergence not localized to a time tile: %s", pd)
	}
	if pd.ULP == 0 {
		t.Errorf("divergence carries no ULP distance: %s", pd)
	}
	t.Logf("localized: %s", pd)
}

// TestPipelinedRespectsWorkerCount pins the degenerate-schedule contract:
// at Workers = 1 the task graph must drain in exactly the sequential WTB
// tile order (asserted structurally in internal/sched); here we assert the
// observable consequence — a full oracle scenario stays bitwise green with
// the serial drainer too, not just the work-stealing one.
func TestPipelinedRespectsWorkerCount(t *testing.T) {
	s := faultScenario()
	s.Workers = 1
	rep, err := RunOracle(s)
	if err != nil {
		t.Fatalf("oracle errored: %v", err)
	}
	if !rep.OK() {
		t.Fatalf("serial task-graph drain diverged: %s", rep)
	}
}
