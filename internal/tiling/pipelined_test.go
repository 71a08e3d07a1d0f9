package tiling

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"wavetile/internal/par"
)

// withWorkers raises the par pool size for a test so the pipelined
// schedule actually runs tiles concurrently even on a single-CPU host.
func withWorkers(t *testing.T, w int) {
	t.Helper()
	old := par.Workers
	par.Workers = w
	t.Cleanup(func() { par.Workers = old })
}

func TestWTBPipelinedCoversExactlyOnceSinglePhase(t *testing.T) {
	withWorkers(t, 4)
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
		if err := RunWTBPipelined(m, c.cfg); err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		m.assertExactlyOnce(t)
	}
}

func TestWTBPipelinedCoversExactlyOnceMultiPhase(t *testing.T) {
	withWorkers(t, 4)
	for _, r := range []int{1, 2, 3} {
		m := newMock(36, 28, 7, 2*r, []int{0, r})
		cfg := Config{TT: 3, TileX: 4 * r, TileY: 6 * r, BlockX: 5, BlockY: 3}
		if err := RunWTBPipelined(m, cfg); err != nil {
			t.Fatalf("r=%d: %v", r, err)
		}
		m.assertExactlyOnce(t)
	}
}

// TestWTBPipelinedCoverageProperty mirrors TestWTBCoverageProperty for the
// task-graph runner: random legal configurations must preserve the
// exactly-once invariant under concurrent tile execution.
func TestWTBPipelinedCoverageProperty(t *testing.T) {
	withWorkers(t, 4)
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
		if err := RunWTBPipelined(m, cfg); err != nil {
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
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWTBPipelinedDependencyStamps runs the symbolic time-level checker
// under the concurrent schedule: any tile executing before a predecessor
// it reads from (or overwriting a value a neighbour still needs) shows up
// as a stale/fresh stamp. This is the direct test that the task graph's
// edge set is sufficient.
func TestWTBPipelinedDependencyStamps(t *testing.T) {
	withWorkers(t, 4)
	for _, r := range []int{1, 2, 4} {
		for _, cfg := range []Config{
			{TT: 4, TileX: 4 * r, TileY: 4 * r, BlockX: 8, BlockY: 8},
			{TT: 7, TileX: 2 * r, TileY: 2 * r, BlockX: 4, BlockY: 4},
			{TT: 16, TileX: 6 * r, TileY: 4 * r, BlockX: 8, BlockY: 8},
		} {
			s := newStampPingPong(14*r, 10*r, 9, r)
			if err := RunWTBPipelined(s, cfg); err != nil {
				t.Fatal(err)
			}
			if len(s.errs) > 0 {
				t.Fatalf("ping-pong r=%d %v: %v", r, cfg, s.errs)
			}
		}
	}
	for _, r := range []int{1, 2, 4} {
		for _, cfg := range []Config{
			{TT: 4, TileX: 4 * r, TileY: 4 * r, BlockX: 8, BlockY: 8},
			{TT: 9, TileX: 6 * r, TileY: 4 * r, BlockX: 8, BlockY: 8},
		} {
			s := newStampProp(14*r, 12*r, 9, r, 2, []int{0, r})
			if err := RunWTBPipelined(s, cfg); err != nil {
				t.Fatal(err)
			}
			if len(s.errs) > 0 {
				t.Fatalf("two-phase r=%d %v: %v", r, cfg, s.errs)
			}
		}
	}
}

// TestTaskHookFiresPerTask asserts Run's onTask hook runs exactly once per
// non-empty space-time tile under either graph drain — the contract the
// dist overlap path's boundary countdowns depend on.
func TestTaskHookFiresPerTask(t *testing.T) {
	for _, kind := range []Kind{WTB, WTBPipelined} {
		hookFiresPerTask(t, kind)
	}
}

func hookFiresPerTask(t *testing.T, kind Kind) {
	withWorkers(t, 4)
	m := newMock(30, 26, 10, 2, []int{0})
	cfg := Config{TT: 4, TileX: 8, TileY: 8, BlockX: 8, BlockY: 8}
	var mu sync.Mutex
	seen := map[[3]int]int{}
	var calls atomic.Int64
	onTask := func(bx, by, k int) {
		calls.Add(1)
		mu.Lock()
		seen[[3]int{bx, by, k}]++
		mu.Unlock()
	}
	if err := Run(m, kind, cfg, 0, m.nt, onTask); err != nil {
		t.Fatal(err)
	}
	m.assertExactlyOnce(t)
	want := 0
	for t0 := 0; t0 < m.nt; t0 += cfg.TT {
		tt := min(cfg.TT, m.nt-t0)
		tg := NewTileGrid(m, cfg, tt)
		for bx := 0; bx < tg.NBX; bx++ {
			for by := 0; by < tg.NBY; by++ {
				for k := 0; k < tt; k++ {
					if !tg.Empty(bx, by, k) {
						want++
					}
				}
			}
		}
	}
	if got := int(calls.Load()); got != want {
		t.Fatalf("kind %d: hook fired %d times, want %d", kind, got, want)
	}
	for key, n := range seen {
		if n != m.nt/cfg.TT && n > 3 { // same (bx,by,k) recurs once per time tile
			t.Fatalf("hook for %v fired %d times", key, n)
		}
	}
}
