package tiling

import "wavetile/internal/grid"

// TileGrid is the precomputed geometry of one WTB time tile: how many
// skewed space tiles cover the domain, and where each tile's raw region
// sits at each local step. It factors the index arithmetic of Listing 6
// out of the executor so that both graph drains of Run and the distributed
// boundary/interior split (internal/dist) agree on tile placement by
// construction.
type TileGrid struct {
	Cfg       Config
	Skew, Off int // wavefront shift per local step; laggard-phase offset
	NX, NY    int
	TT        int // local steps in this time tile (≤ Cfg.TT on the last tile)
	NBX, NBY  int // tile counts, including the extra tiles that start past the edge
}

// NewTileGrid computes the tile layout for one time tile of tt local
// steps. Regions shift left/up by Skew per local step, so enough extra
// tiles start beyond the right/bottom edge that shifted regions still
// cover the domain at the last level.
func NewTileGrid(p Propagator, cfg Config, tt int) TileGrid {
	nx, ny := p.GridShape()
	s := p.TimeSkew() + FaultSkewDelta
	off := p.MaxPhaseOffset()
	shift := (tt-1)*s + off
	return TileGrid{
		Cfg: cfg, Skew: s, Off: off, NX: nx, NY: ny, TT: tt,
		NBX: (nx + shift + cfg.TileX - 1) / cfg.TileX,
		NBY: (ny + shift + cfg.TileY - 1) / cfg.TileY,
	}
}

// Raw returns the raw (unclamped, possibly out-of-domain) region of tile
// (bx, by) at local step k — the region handed to Propagator.Step, which
// clamps it per field phase.
func (g TileGrid) Raw(bx, by, k int) grid.Region {
	r := grid.Region{X0: bx*g.Cfg.TileX - k*g.Skew, Y0: by*g.Cfg.TileY - k*g.Skew}
	r.X1 = r.X0 + g.Cfg.TileX
	r.Y1 = r.Y0 + g.Cfg.TileY
	return r
}

// Empty reports whether tile (bx, by) at local step k cannot intersect
// the domain for any field phase (phases shift further left by ≤ Off) —
// the empty-task predicate of the time tile's graph.
func (g TileGrid) Empty(bx, by, k int) bool {
	r := g.Raw(bx, by, k)
	return r.X1 <= 0 || r.Y1 <= 0 || r.X0-g.Off >= g.NX || r.Y0-g.Off >= g.NY
}
