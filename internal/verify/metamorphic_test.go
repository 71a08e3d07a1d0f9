package verify

import (
	"testing"

	"wavetile/internal/tiling"
)

// The metamorphic properties run over a small fixed-seed scenario slice:
// their value is the invariant itself, not the sampling breadth (the oracle
// test owns breadth), so a deterministic handful keeps them fast and stable.

func metamorphicScenarios(t *testing.T, n int) []Scenario {
	t.Helper()
	if testing.Short() {
		n = (n + 1) / 2 // the race gate's size
	}
	return Generate(424242, n)
}

// TestZeroSourceYieldsZeroField: no sources in, no energy out, under both
// schedules.
func TestZeroSourceYieldsZeroField(t *testing.T) {
	for _, s := range metamorphicScenarios(t, 6) {
		if err := CheckZeroSource(s); err != nil {
			t.Error(err)
		}
	}
}

// TestSourceSuperposition: the discretized wave equation is linear in its
// sources; a run with all sources must equal the sum of runs with any
// disjoint split, within FP tolerance.
func TestSourceSuperposition(t *testing.T) {
	checked := 0
	for _, s := range metamorphicScenarios(t, 12) {
		if s.NSrc < 2 {
			continue
		}
		if err := CheckSuperposition(s); err != nil {
			t.Error(err)
		}
		if checked++; checked == 4 {
			break
		}
	}
	if checked < 2 {
		t.Fatalf("only %d scenarios had ≥ 2 sources; widen the sample", checked)
	}
}

// TestTranslationInvariance: shifting sources and receivers by whole cells
// on a homogeneous undamped grid shifts the wavefield bit-for-bit. The
// scenario is sized so the numerical support stays clear of the boundary
// (CheckTranslation asserts the guard band rather than assuming it).
func TestTranslationInvariance(t *testing.T) {
	s := Scenario{
		Seed:    9,
		Physics: Acoustic,
		SO:      4,
		Shape:   [3]int{44, 44, 44},
		Spacing: [3]float64{8, 8, 8},
		NBL:     0,
		Steps:   5,
		Model:   ModelHomogeneous,
		SrcKind: SrcOffGrid,
		NSrc:    2,
		Rec:     RecScatter,
		NRec:    3,
		Workers: 2,
		WTB:     tiling.Config{TT: 3, TileX: 12, TileY: 12, BlockX: 6, BlockY: 6},
	}
	for _, shift := range [][3]int{{2, 1, 2}, {-2, 3, 0}} {
		if err := CheckTranslation(s, shift); err != nil {
			t.Error(err)
		}
	}
}

// TestWorkerCountInvariance: the worker pool width must never change a bit
// — disjoint blocks, identical per-point arithmetic — under either schedule.
func TestWorkerCountInvariance(t *testing.T) {
	for _, s := range metamorphicScenarios(t, 4) {
		if err := CheckWorkerInvariance(s, []int{2, 5}); err != nil {
			t.Error(err)
		}
	}
}
