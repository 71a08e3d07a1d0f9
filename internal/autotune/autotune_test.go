package autotune

import (
	"testing"

	"wavetile/internal/grid"
	"wavetile/internal/tiling"
)

// sleepProp is a propagator whose Step cost depends on the configuration in
// a controlled way: it counts Step invocations, so configurations creating
// more (smaller, more-clamped) tiles take measurably longer in aggregate
// work executed by the tuner.
type sleepProp struct {
	nx, ny, nt int
	calls      int
}

func (s *sleepProp) GridShape() (int, int) { return s.nx, s.ny }
func (s *sleepProp) Steps() int            { return s.nt }
func (s *sleepProp) TimeSkew() int         { return 2 }
func (s *sleepProp) MaxPhaseOffset() int   { return 0 }
func (s *sleepProp) MinTile() int          { return 4 }
func (s *sleepProp) SetBlocks(bx, by int)  {}
func (s *sleepProp) SetFused(bool)         {}
func (s *sleepProp) ApplySparse(int)       {}
func (s *sleepProp) Step(t int, r grid.Region, fused bool) {
	// Simulate per-tile overhead plus per-point work.
	s.calls++
	reg := r.Clamp(s.nx, s.ny)
	sink := 0
	for i := 0; i < reg.NumPoints()+500; i++ {
		sink += i
	}
	_ = sink
}

func TestCandidatesRespectConstraints(t *testing.T) {
	cands := Candidates(128, 96, 16, []int{8, 16})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	for _, c := range cands {
		if c.TileX < 16 || c.TileY < 16 {
			t.Fatalf("candidate below margin: %v", c)
		}
		if c.TileX > 128 || c.TileY > 96 {
			t.Fatalf("candidate beyond grid: %v", c)
		}
		if c.BlockX > c.TileX || c.BlockY > c.TileY {
			t.Fatalf("block exceeds tile: %v", c)
		}
		if c.TT != 8 && c.TT != 16 {
			t.Fatalf("unexpected TT: %v", c)
		}
	}
}

func TestCandidatesEmptyWhenImpossible(t *testing.T) {
	if cands := Candidates(8, 8, 64, []int{8}); len(cands) != 0 {
		t.Fatalf("impossible margin produced candidates: %d", len(cands))
	}
}

func TestTuneReturnsSortedResults(t *testing.T) {
	p := &sleepProp{nx: 64, ny: 64, nt: 4}
	run := func(nt int) (tiling.Propagator, error) { return p, nil }
	cands := []tiling.Config{
		{TT: 4, TileX: 8, TileY: 8, BlockX: 8, BlockY: 8},
		{TT: 4, TileX: 32, TileY: 32, BlockX: 8, BlockY: 8},
		{TT: 4, TileX: 64, TileY: 64, BlockX: 8, BlockY: 8},
	}
	res, err := Tune(run, tiling.WTB, 4, 2, 64*64, cands)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != len(cands) {
		t.Fatalf("%d results", len(res))
	}
	for i := 1; i < len(res); i++ {
		if res[i].Elapsed < res[i-1].Elapsed {
			t.Fatal("results not sorted by time")
		}
	}
	for _, r := range res {
		if r.GPts <= 0 {
			t.Fatalf("non-positive throughput: %+v", r)
		}
	}
	best, err := Best(run, tiling.WTB, 4, 1, 64*64, cands)
	if err != nil {
		t.Fatal(err)
	}
	if best.TileX == 0 {
		t.Fatal("empty best config")
	}
}

func TestTuneNoCandidates(t *testing.T) {
	if _, err := Tune(func(int) (tiling.Propagator, error) { return nil, nil }, tiling.WTB, 1, 1, 1, nil); err == nil {
		t.Fatal("empty candidate list accepted")
	}
}
