package grid

import "fmt"

// Region is a half-open rectangle [X0,X1) × [Y0,Y1) in the x–y plane of a
// grid. The z dimension is always streamed in full by the kernels, following
// the paper's loop structure (blocking and tiling act on x and y only;
// Listings 4–6).
//
// Regions produced by the wave-front temporal-blocking schedule may extend
// beyond the grid before clamping: the skewing shifts raw tile rectangles
// left/up as the time index inside a tile advances, and per-field phase
// offsets shift them further (Fig. 8b). Propagators clamp per phase.
type Region struct {
	X0, X1, Y0, Y1 int
}

// FullRegion returns the region covering an nx × ny interior.
func FullRegion(nx, ny int) Region { return Region{0, nx, 0, ny} }

// Empty reports whether r contains no points.
func (r Region) Empty() bool { return r.X0 >= r.X1 || r.Y0 >= r.Y1 }

// NumPoints returns the number of (x, y) columns in r, 0 if empty.
func (r Region) NumPoints() int {
	if r.Empty() {
		return 0
	}
	return (r.X1 - r.X0) * (r.Y1 - r.Y0)
}

// Clamp intersects r with [0,nx) × [0,ny).
func (r Region) Clamp(nx, ny int) Region {
	if r.X0 < 0 {
		r.X0 = 0
	}
	if r.Y0 < 0 {
		r.Y0 = 0
	}
	if r.X1 > nx {
		r.X1 = nx
	}
	if r.Y1 > ny {
		r.Y1 = ny
	}
	return r
}

// Shift translates r by (dx, dy).
func (r Region) Shift(dx, dy int) Region {
	return Region{r.X0 + dx, r.X1 + dx, r.Y0 + dy, r.Y1 + dy}
}

// Intersect returns the intersection of r and o (possibly empty).
func (r Region) Intersect(o Region) Region {
	return Region{
		max(r.X0, o.X0), min(r.X1, o.X1),
		max(r.Y0, o.Y0), min(r.Y1, o.Y1),
	}
}

// Contains reports whether (x, y) lies in r.
func (r Region) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

func (r Region) String() string {
	return fmt.Sprintf("[%d,%d)x[%d,%d)", r.X0, r.X1, r.Y0, r.Y1)
}

// SplitBlocks cuts r into blocks of at most bx × by columns, in row-major
// order, and returns them. It is the spatial "cache blocking" decomposition
// of the paper's Listing 6 inner loops; the blocks of one region are mutually
// independent and may be executed in parallel.
//
// Non-positive bx/by select the full extent in that dimension.
func (r Region) SplitBlocks(bx, by int) []Region {
	return r.AppendBlocks(nil, bx, by)
}

// AppendBlocks is SplitBlocks appending into dst, so hot schedule loops can
// recycle one buffer per step instead of allocating the block list anew
// (tiling.ForBlocksIndexed feeds it from a sync.Pool). Block order and
// contents are identical to SplitBlocks.
func (r Region) AppendBlocks(dst []Region, bx, by int) []Region {
	if r.Empty() {
		return dst
	}
	if bx <= 0 {
		bx = r.X1 - r.X0
	}
	if by <= 0 {
		by = r.Y1 - r.Y0
	}
	for x0 := r.X0; x0 < r.X1; x0 += bx {
		x1 := min(x0+bx, r.X1)
		for y0 := r.Y0; y0 < r.Y1; y0 += by {
			dst = append(dst, Region{x0, x1, y0, min(y0+by, r.Y1)})
		}
	}
	return dst
}
