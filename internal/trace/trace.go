// Package trace generates the memory-access streams of the wave propagators
// under either execution schedule and replays them through the cache
// simulator (internal/cachesim).
//
// Each trace propagator implements tiling.Propagator, so the *actual*
// schedule code — tiling.Run's spatial and WTB kinds, with their skewing,
// clamping and phase offsets — drives the address generation. The trace
// kernels mirror the data layout (padded strides, z-contiguous rows) and
// the row-access pattern of the real kernels at cache-line granularity: for
// every (x, y) column visited, each z-row the kernel touches is streamed
// line by line. This captures exactly the reuse structure temporal blocking
// exploits while keeping simulation tractable.
package trace

import (
	"wavetile/internal/cachesim"
)

// Sink consumes the generated accesses; *cachesim.Hierarchy implements it.
type Sink interface {
	Access(addr uint64, write bool)
}

// CountingSink tallies accesses without simulating a cache (for tests and
// flop/byte accounting).
type CountingSink struct {
	Reads, Writes uint64
}

// Access implements Sink.
func (c *CountingSink) Access(addr uint64, write bool) {
	if write {
		c.Writes++
	} else {
		c.Reads++
	}
}

// Layout assigns disjoint address ranges to named arrays, mimicking the
// allocator: line-aligned bases with a one-line stagger between consecutive
// arrays so they do not collide pathologically in the cache sets.
type Layout struct {
	next uint64
}

// Array is a flat float32 array in the simulated address space.
type Array struct {
	base uint64
}

// NewArray reserves space for n float32 elements.
func (l *Layout) NewArray(n int) Array {
	a := Array{base: l.next}
	bytes := uint64(n) * 4
	// Round up to a line and stagger by one extra line.
	bytes = (bytes + cachesim.LineSize - 1) / cachesim.LineSize * cachesim.LineSize
	l.next += bytes + cachesim.LineSize
	return a
}

// Addr returns the byte address of element i.
func (a Array) Addr(i int) uint64 { return a.base + uint64(i)*4 }

// field is a grid-shaped array with the same padded layout as grid.Grid.
type field struct {
	arr        Array
	nz, sx, sy int
	h          int
}

func newField(l *Layout, nx, ny, nz, halo int) field {
	px, py, pz := nx+2*halo, ny+2*halo, nz+2*halo
	return field{arr: l.NewArray(px * py * pz), nz: nz, sx: py * pz, sy: pz, h: halo}
}

// streamRow touches every line of the z-row at column (x, y), covering
// [−halo, nz+halo) as stencil z-neighbours do, reading or writing.
func (f field) streamRow(s Sink, x, y int, write bool) {
	base := (x+f.h)*f.sx + (y+f.h)*f.sy
	lo := f.arr.Addr(base)
	hi := f.arr.Addr(base + f.nz + 2*f.h)
	for a := lo / cachesim.LineSize * cachesim.LineSize; a < hi; a += cachesim.LineSize {
		s.Access(a, write)
	}
}

// touch accesses the single element at flat padded index.
func (f field) touch(s Sink, x, y, z int, write bool) {
	s.Access(f.arr.Addr((x+f.h)*f.sx+(y+f.h)*f.sy+(z+f.h)), write)
}

// rowSet describes which z-rows (relative to the current column) a kernel
// reads from one field: offsets along x, along y, and whether the center
// row is read.
type rowSet struct {
	xOff, yOff []int // e.g. ±1..±r
	center     bool
}

func crossOffsets(r int) []int {
	out := make([]int, 0, 2*r)
	for k := 1; k <= r; k++ {
		out = append(out, k, -k)
	}
	return out
}

// stream replays the row set of one field for column (x, y).
func (rs rowSet) stream(f field, s Sink, x, y int) {
	if rs.center {
		f.streamRow(s, x, y, false)
	}
	for _, dx := range rs.xOff {
		f.streamRow(s, x+dx, y, false)
	}
	for _, dy := range rs.yOff {
		f.streamRow(s, x, y+dy, false)
	}
}
