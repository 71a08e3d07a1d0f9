package tiling

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"wavetile/internal/grid"
)

// mockProp is a counting propagator: it records how many times every
// (phase, t, x, y) cell is stepped, so tests can assert the schedules cover
// each cell exactly once — the structural correctness of Listing 6.
type mockProp struct {
	nx, ny, nt  int
	skew        int
	phaseOffs   []int // per-phase region offsets (0 for single phase)
	mu          sync.Mutex
	counts      [][]int32 // [phase][t*nx*ny + x*ny + y]
	blockX      int
	blockY      int
	sparseCount []int32       // fused sparse applications per (t)
	sparseDelay time.Duration // artificial ApplySparse cost (obs tests)
}

func newMock(nx, ny, nt, skew int, phaseOffs []int) *mockProp {
	m := &mockProp{nx: nx, ny: ny, nt: nt, skew: skew, phaseOffs: phaseOffs}
	m.counts = make([][]int32, len(phaseOffs))
	for p := range m.counts {
		m.counts[p] = make([]int32, nt*nx*ny)
	}
	m.sparseCount = make([]int32, nt)
	return m
}

func (m *mockProp) GridShape() (int, int) { return m.nx, m.ny }
func (m *mockProp) Steps() int            { return m.nt }
func (m *mockProp) TimeSkew() int         { return m.skew }
func (m *mockProp) MaxPhaseOffset() int {
	o := 0
	for _, v := range m.phaseOffs {
		if v > o {
			o = v
		}
	}
	return o
}
func (m *mockProp) MinTile() int         { return 2 * m.skew }
func (m *mockProp) SetBlocks(bx, by int) { m.blockX, m.blockY = bx, by }
func (m *mockProp) SetFused(bool)        {}
func (m *mockProp) ApplySparse(t int) {
	if m.sparseDelay > 0 {
		time.Sleep(m.sparseDelay)
	}
	m.sparseCount[t]++
}

func (m *mockProp) Step(t int, raw grid.Region, fused bool) {
	for p, off := range m.phaseOffs {
		reg := raw.Shift(-off, -off).Clamp(m.nx, m.ny)
		if reg.Empty() {
			continue
		}
		ForBlocksIndexed(reg, m.blockX, m.blockY, func(_ int, b grid.Region) {
			m.mu.Lock()
			for x := b.X0; x < b.X1; x++ {
				for y := b.Y0; y < b.Y1; y++ {
					m.counts[p][(t*m.nx+x)*m.ny+y]++
				}
			}
			m.mu.Unlock()
		})
	}
}

func (m *mockProp) assertExactlyOnce(t *testing.T) {
	t.Helper()
	for p := range m.counts {
		for i, c := range m.counts[p] {
			if c != 1 {
				tt := i / (m.nx * m.ny)
				rem := i % (m.nx * m.ny)
				t.Fatalf("phase %d t=%d x=%d y=%d stepped %d times, want 1",
					p, tt, rem/m.ny, rem%m.ny, c)
			}
		}
	}
}

func TestSpatialCoversExactlyOnce(t *testing.T) {
	m := newMock(19, 23, 7, 2, []int{0})
	RunSpatial(m, 5, 4, false)
	m.assertExactlyOnce(t)
	for tt, c := range m.sparseCount {
		if c != 1 {
			t.Fatalf("ApplySparse at t=%d called %d times", tt, c)
		}
	}
}

func TestSpatialCoversExactlyOnceMultiPhase(t *testing.T) {
	// Regression: the stress phase of the elastic propagator shifts its
	// region back by the radius before clamping; the spatial schedule must
	// extend the raw region so the last rows/columns are still covered.
	for _, r := range []int{1, 2, 6} {
		m := newMock(21, 17, 4, 2*r, []int{0, r})
		RunSpatial(m, 8, 8, true)
		m.assertExactlyOnce(t)
	}
}

func TestWTBCoversExactlyOnceSinglePhase(t *testing.T) {
	cases := []struct {
		nx, ny, nt, skew int
		cfg              Config
	}{
		{32, 32, 9, 2, Config{TT: 4, TileX: 8, TileY: 8, BlockX: 4, BlockY: 4}},
		{40, 24, 11, 4, Config{TT: 3, TileX: 16, TileY: 8, BlockX: 8, BlockY: 8}},
		{17, 33, 5, 1, Config{TT: 5, TileX: 7, TileY: 9, BlockX: 3, BlockY: 5}},
		{16, 16, 16, 2, Config{TT: 16, TileX: 16, TileY: 16, BlockX: 16, BlockY: 16}},
		{64, 16, 6, 6, Config{TT: 2, TileX: 12, TileY: 16, BlockX: 4, BlockY: 4}},
	}
	for _, c := range cases {
		m := newMock(c.nx, c.ny, c.nt, c.skew, []int{0})
		if err := RunWTB(m, c.cfg); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		m.assertExactlyOnce(t)
	}
}

func TestWTBCoversExactlyOnceMultiPhase(t *testing.T) {
	// Elastic-like: two phases, the second trailing by the radius, skew 2r.
	for _, r := range []int{1, 2, 3} {
		m := newMock(36, 28, 7, 2*r, []int{0, r})
		cfg := Config{TT: 3, TileX: 4 * r, TileY: 6 * r, BlockX: 5, BlockY: 3}
		if err := RunWTB(m, cfg); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		m.assertExactlyOnce(t)
	}
}

// TestWTBCoverageProperty drives random legal configurations through the WTB
// schedule and asserts the exactly-once invariant.
func TestWTBCoverageProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		skew := 1 + rng.Intn(4)
		phases := []int{0}
		if rng.Intn(2) == 1 { // elastic-like
			phases = []int{0, skew}
			skew *= 2
		}
		nx := 2*skew + 1 + rng.Intn(40)
		ny := 2*skew + 1 + rng.Intn(40)
		nt := 1 + rng.Intn(9)
		cfg := Config{
			TT:     1 + rng.Intn(5),
			TileX:  2*skew + rng.Intn(20),
			TileY:  2*skew + rng.Intn(20),
			BlockX: 1 + rng.Intn(12),
			BlockY: 1 + rng.Intn(12),
		}
		m := newMock(nx, ny, nt, skew, phases)
		if err := RunWTB(m, cfg); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for p := range m.counts {
			for _, c := range m.counts[p] {
				if c != 1 {
					t.Logf("seed %d cfg %+v nx=%d ny=%d nt=%d skew=%d phases=%v: coverage violation",
						seed, cfg, nx, ny, nt, skew, phases)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestConfigValidate(t *testing.T) {
	m := newMock(16, 16, 2, 2, []int{0})
	if err := (Config{TT: 0, TileX: 8, TileY: 8}).Validate(m); err == nil {
		t.Fatal("TT=0 accepted")
	}
	if err := (Config{TT: 1, TileX: 3, TileY: 8}).Validate(m); err == nil {
		t.Fatal("tile below margin accepted")
	}
	if err := (Config{TT: 1, TileX: 4, TileY: 4}).Validate(m); err != nil {
		t.Fatalf("legal config rejected: %v", err)
	}
	if err := RunWTB(m, Config{TT: 0, TileX: 8, TileY: 8}); err == nil {
		t.Fatal("RunWTB accepted invalid config")
	}
}

func TestForBlocksCoversRegion(t *testing.T) {
	reg := grid.Region{X0: 3, X1: 29, Y0: 1, Y1: 18}
	var mu sync.Mutex
	seen := map[[2]int]int{}
	ForBlocksIndexed(reg, 7, 5, func(_ int, b grid.Region) {
		mu.Lock()
		defer mu.Unlock()
		for x := b.X0; x < b.X1; x++ {
			for y := b.Y0; y < b.Y1; y++ {
				seen[[2]int{x, y}]++
			}
		}
	})
	if len(seen) != reg.NumPoints() {
		t.Fatalf("covered %d points, want %d", len(seen), reg.NumPoints())
	}
	for k, v := range seen {
		if v != 1 {
			t.Fatalf("point %v visited %d times", k, v)
		}
	}
}
