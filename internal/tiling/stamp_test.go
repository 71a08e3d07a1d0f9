package tiling

import (
	"fmt"
	"sync"
	"testing"

	"wavetile/internal/grid"
)

// stampProp is a symbolic dependency checker: instead of physics it tracks,
// per (x, y) column, the time index each field phase currently holds, and
// verifies on every read that the value a real kernel would consume is at
// the correct time level — catching both stale reads (overwritten too late)
// and fresh reads (overwritten too early) that value-based tests may miss
// when the numerical effect is tiny.
//
// Phase p reads phase p-1 (or the last phase of the previous timestep, for
// p = 0) over a halo of `radius`, and its own previous value pointwise.
type stampProp struct {
	nx, ny, nt int
	radius     int
	phases     int   // number of field phases per timestep
	offs       []int // per-phase region offset (multiples of radius)
	pingPong   bool  // single-phase two-buffer mode (acoustic leapfrog)
	stamp      [][]int32
	blockX     int
	blockY     int
	errMu      sync.Mutex // errs is appended from concurrent pipelined tasks
	errs       []string
}

// errf records a dependency violation; safe for concurrent Steps (the
// pipelined schedule runs independent tiles on several workers).
func (s *stampProp) errf(format string, args ...any) {
	s.errMu.Lock()
	if len(s.errs) < 8 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
	s.errMu.Unlock()
}

func newStampProp(nx, ny, nt, radius, phases int, offs []int) *stampProp {
	s := &stampProp{nx: nx, ny: ny, nt: nt, radius: radius, phases: phases, offs: offs}
	s.stamp = make([][]int32, phases)
	for p := range s.stamp {
		s.stamp[p] = make([]int32, nx*ny) // all at time 0 initially
	}
	return s
}

// newStampPingPong models a single-phase leapfrog propagator with two
// in-place buffers (the acoustic/TTI memory layout): buffer b holds times of
// parity b; computing time t+1 reads buffer t&1 at ±radius (must hold t) and
// overwrites buffer (t+1)&1 (which must hold t−1).
func newStampPingPong(nx, ny, nt, radius int) *stampProp {
	s := &stampProp{nx: nx, ny: ny, nt: nt, radius: radius, phases: 1, offs: []int{0}, pingPong: true}
	s.stamp = [][]int32{make([]int32, nx*ny), make([]int32, nx*ny)}
	for i := range s.stamp[1] {
		s.stamp[1][i] = -1 // buffer 1 holds "time −1" (zero initial data)
	}
	return s
}

func (s *stampProp) GridShape() (int, int) { return s.nx, s.ny }
func (s *stampProp) Steps() int            { return s.nt }
func (s *stampProp) TimeSkew() int         { return s.phases * s.radius }
func (s *stampProp) MaxPhaseOffset() int {
	o := 0
	for _, v := range s.offs {
		if v > o {
			o = v
		}
	}
	return o
}
func (s *stampProp) MinTile() int         { return 2 * s.radius * s.phases }
func (s *stampProp) SetBlocks(bx, by int) { s.blockX, s.blockY = bx, by }
func (s *stampProp) SetFused(bool)        {}
func (s *stampProp) ApplySparse(int)      {}

func (s *stampProp) Step(t int, raw grid.Region, fused bool) {
	if s.pingPong {
		s.stepPingPong(t, raw)
		return
	}
	for p := 0; p < s.phases; p++ {
		reg := raw.Shift(-s.offs[p], -s.offs[p]).Clamp(s.nx, s.ny)
		if reg.Empty() {
			continue
		}
		// Which field does phase p read, and at which time level must it be?
		readPhase := p - 1
		want := int32(t + 1)
		if p == 0 {
			readPhase = s.phases - 1
			want = int32(t)
		}
		src := s.stamp[readPhase]
		// Sequential check+write (races are ForBlocksIndexed's concern, already
		// tested); halo reads outside the domain are always fine (zeros).
		for x := reg.X0; x < reg.X1; x++ {
			for y := reg.Y0; y < reg.Y1; y++ {
				for dx := -s.radius; dx <= s.radius; dx++ {
					for dy := -s.radius; dy <= s.radius; dy++ {
						xx, yy := x+dx, y+dy
						if xx < 0 || xx >= s.nx || yy < 0 || yy >= s.ny {
							continue
						}
						if got := src[xx*s.ny+yy]; got != want {
							s.errf(
								"phase %d computing t=%d at (%d,%d): read phase %d at (%d,%d) holds t=%d, want t=%d",
								p, t+1, x, y, readPhase, xx, yy, got, want)
						}
					}
				}
				// Own previous value must be at time t.
				if got := s.stamp[p][x*s.ny+y]; got != int32(t) {
					s.errf(
						"phase %d computing t=%d at (%d,%d): own value holds t=%d, want t=%d",
						p, t+1, x, y, got, t)
				}
				s.stamp[p][x*s.ny+y] = int32(t + 1)
			}
		}
	}
}

func (s *stampProp) stepPingPong(t int, raw grid.Region) {
	reg := raw.Clamp(s.nx, s.ny)
	if reg.Empty() {
		return
	}
	rd := s.stamp[t&1]
	wr := s.stamp[(t+1)&1]
	for x := reg.X0; x < reg.X1; x++ {
		for y := reg.Y0; y < reg.Y1; y++ {
			for dx := -s.radius; dx <= s.radius; dx++ {
				for dy := -s.radius; dy <= s.radius; dy++ {
					xx, yy := x+dx, y+dy
					if xx < 0 || xx >= s.nx || yy < 0 || yy >= s.ny {
						continue
					}
					if got := rd[xx*s.ny+yy]; got != int32(t) {
						if len(s.errs) < 8 {
							s.errs = append(s.errs, fmt.Sprintf(
								"computing t=%d at (%d,%d): read buffer holds t=%d at (%d,%d), want t=%d",
								t+1, x, y, got, xx, yy, t))
						}
					}
				}
			}
			if got := wr[x*s.ny+y]; got != int32(t-1) {
				if len(s.errs) < 8 {
					s.errs = append(s.errs, fmt.Sprintf(
						"computing t=%d at (%d,%d): write buffer holds t=%d, want t=%d",
						t+1, x, y, got, t-1))
				}
			}
			wr[x*s.ny+y] = int32(t + 1)
		}
	}
}

func TestWTBDependencyStampsSinglePhase(t *testing.T) {
	for _, r := range []int{1, 2, 4, 6} {
		for _, cfg := range []Config{
			{TT: 4, TileX: 4 * r, TileY: 4 * r, BlockX: 8, BlockY: 8},
			{TT: 7, TileX: 2 * r, TileY: 2 * r, BlockX: 4, BlockY: 4},
			{TT: 16, TileX: 6 * r, TileY: 4 * r, BlockX: 8, BlockY: 8},
		} {
			s := newStampPingPong(14*r, 10*r, 9, r)
			if err := RunWTB(s, cfg); err != nil {
				t.Fatal(err)
			}
			if len(s.errs) > 0 {
				t.Fatalf("r=%d %v: %v", r, cfg, s.errs)
			}
		}
	}
}

func TestWTBDependencyStampsTwoPhase(t *testing.T) {
	// Elastic-like: phase 0 (velocity) at offset 0, phase 1 (stress)
	// trailing by the radius; skew 2r.
	for _, r := range []int{1, 2, 4} {
		for _, cfg := range []Config{
			{TT: 4, TileX: 4 * r, TileY: 4 * r, BlockX: 8, BlockY: 8},
			{TT: 7, TileX: 4 * r, TileY: 4 * r, BlockX: 100, BlockY: 100},
			{TT: 9, TileX: 6 * r, TileY: 4 * r, BlockX: 8, BlockY: 8},
		} {
			s := newStampProp(14*r, 12*r, 9, r, 2, []int{0, r})
			if err := RunWTB(s, cfg); err != nil {
				t.Fatal(err)
			}
			if len(s.errs) > 0 {
				t.Fatalf("r=%d %v: %v", r, cfg, s.errs)
			}
		}
	}
}
