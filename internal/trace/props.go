package trace

import (
	"wavetile/internal/grid"
	"wavetile/internal/sparse"
)

// Shape configures a trace propagator.
type Shape struct {
	Nx, Ny, Nz int
	SO         int // space order
	Nt         int
	// Sources: grid columns carrying injection work (fused path) and the
	// scattered points of the baseline path.
	SrcSupports []sparse.Support
}

// Prop is the common base of the trace propagators.
type Prop struct {
	shape          Shape
	r              int
	sink           Sink
	blockX, blockY int
	// Fused-injection structures (line-granular): per-column nonzero count.
	nnz    []int
	nnzArr Array
	srcArr Array // decomposed wavefield src_dcmp[t]
	kind   string
	fields map[string]field
	layout Layout
	// step emits the accesses of one phase-complete timestep on a clamped
	// region; set by the concrete constructors.
	step func(t int, raw grid.Region)
}

// GridShape implements tiling.Propagator.
func (p *Prop) GridShape() (int, int) { return p.shape.Nx, p.shape.Ny }

// Steps implements tiling.Propagator.
func (p *Prop) Steps() int { return p.shape.Nt }

// MinTile implements tiling.Propagator.
func (p *Prop) MinTile() int { return 2 * p.r }

// SetBlocks implements tiling.Propagator.
func (p *Prop) SetBlocks(bx, by int) { p.blockX, p.blockY = bx, by }

// SetFused implements tiling.Propagator; an access stream carries no
// receiver record, so there is nothing to route.
func (p *Prop) SetFused(bool) {}

// TimeSkew implements tiling.Propagator (overridden for elastic via skew).
func (p *Prop) TimeSkew() int { return p.r }

// MaxPhaseOffset implements tiling.Propagator.
func (p *Prop) MaxPhaseOffset() int { return 0 }

// Step implements tiling.Propagator: it visits the region's blocks
// sequentially (a single simulated access stream) in the same block
// decomposition the real runtime uses.
func (p *Prop) Step(t int, raw grid.Region, fused bool) {
	reg := raw.Clamp(p.shape.Nx, p.shape.Ny)
	if reg.Empty() {
		return
	}
	for _, b := range reg.SplitBlocks(p.blockX, p.blockY) {
		p.step(t, b)
		if fused {
			p.injectFused(b)
		}
	}
}

// ApplySparse emits the baseline Listing-1 scattered injection: for every
// source, its wavelet sample and eight support-point read-modify-writes.
func (p *Prop) ApplySparse(t int) {
	for i := range p.shape.SrcSupports {
		sp := &p.shape.SrcSupports[i]
		p.sink.Access(p.srcArr.Addr(t*len(p.shape.SrcSupports)+i), false)
		f := p.anyField()
		for c := 0; c < 8; c++ {
			f.touch(p.sink, int(sp.X[c]), int(sp.Y[c]), int(sp.Z[c]), true)
		}
	}
}

func (p *Prop) anyField() field {
	for _, f := range p.fields {
		return f
	}
	return field{}
}

// injectFused emits the compressed fused-injection accesses of Listing 5:
// the nnz_mask entry per column, plus Sp_SID/src_dcmp/point accesses for
// affected columns.
func (p *Prop) injectFused(b grid.Region) {
	if p.nnz == nil {
		return
	}
	f := p.anyField()
	for x := b.X0; x < b.X1; x++ {
		for y := b.Y0; y < b.Y1; y++ {
			col := x*p.shape.Ny + y
			p.sink.Access(p.nnzArr.Addr(col), false)
			for j := 0; j < p.nnz[col]; j++ {
				p.sink.Access(p.srcArr.Addr(col*8+j), false)
				f.touch(p.sink, x, y, 0, true)
			}
		}
	}
}

func (p *Prop) buildSparse() {
	p.nnz = make([]int, p.shape.Nx*p.shape.Ny)
	seen := map[[3]int32]bool{}
	for i := range p.shape.SrcSupports {
		sp := &p.shape.SrcSupports[i]
		for c := 0; c < 8; c++ {
			k := [3]int32{sp.X[c], sp.Y[c], sp.Z[c]}
			if seen[k] {
				continue
			}
			seen[k] = true
			p.nnz[int(sp.X[c])*p.shape.Ny+int(sp.Y[c])]++
		}
	}
	p.nnzArr = p.layout.NewArray(len(p.nnz))
	// srcArr backs both the fused src_dcmp reads (≤ 8 per column) and the
	// baseline per-source wavelet reads (nt × nsources); size for both.
	p.srcArr = p.layout.NewArray(max(len(p.nnz)*8, p.shape.Nt*len(p.shape.SrcSupports)))
}

// NewAcoustic builds the acoustic trace propagator: per column it streams
// the wavefield star rows (center + ±k in x and y), the output row
// (read-modify-write) and the three per-point factor arrays.
func NewAcoustic(sh Shape, sink Sink) *Prop {
	p := &Prop{shape: sh, r: sh.SO / 2, sink: sink, kind: "acoustic", blockX: 8, blockY: 8}
	mk := func() field { return newField(&p.layout, sh.Nx, sh.Ny, sh.Nz, p.r) }
	p.fields = map[string]field{
		"u0": mk(), "u1": mk(), "dm1": mk(), "dp1i": mk(), "mdt2": mk(),
	}
	p.buildSparse()
	star := rowSet{xOff: crossOffsets(p.r), yOff: crossOffsets(p.r), center: true}
	p.step = func(t int, b grid.Region) {
		u := p.fields["u0"]
		un := p.fields["u1"]
		if t&1 == 1 {
			u, un = un, u
		}
		for x := b.X0; x < b.X1; x++ {
			for y := b.Y0; y < b.Y1; y++ {
				star.stream(u, p.sink, x, y)
				un.streamRow(p.sink, x, y, false) // u⁻ read
				un.streamRow(p.sink, x, y, true)  // u⁺ write
				p.fields["dm1"].streamRow(p.sink, x, y, false)
				p.fields["dp1i"].streamRow(p.sink, x, y, false)
				p.fields["mdt2"].streamRow(p.sink, x, y, false)
			}
		}
	}
	return p
}

// NewTTI builds the TTI trace propagator: both wavefields touch the full
// (2r+1)² square of rows (cross derivatives), plus eight parameter arrays.
func NewTTI(sh Shape, sink Sink) *Prop {
	p := &Prop{shape: sh, r: sh.SO / 2, sink: sink, kind: "tti", blockX: 8, blockY: 8}
	mk := func() field { return newField(&p.layout, sh.Nx, sh.Ny, sh.Nz, p.r) }
	names := []string{"p0", "p1", "q0", "q1", "aa", "bb", "cc", "e2", "sqd", "dm1", "dp1i", "mdt2"}
	p.fields = map[string]field{}
	for _, n := range names {
		p.fields[n] = mk()
	}
	p.buildSparse()
	p.step = func(t int, b grid.Region) {
		pc, pn := p.fields["p0"], p.fields["p1"]
		qc, qn := p.fields["q0"], p.fields["q1"]
		if t&1 == 1 {
			pc, pn = pn, pc
			qc, qn = qn, qc
		}
		params := []field{
			p.fields["aa"], p.fields["bb"], p.fields["cc"],
			p.fields["e2"], p.fields["sqd"],
			p.fields["dm1"], p.fields["dp1i"], p.fields["mdt2"],
		}
		r := p.r
		for x := b.X0; x < b.X1; x++ {
			for y := b.Y0; y < b.Y1; y++ {
				// Cross-derivative square: rows (x+dx, y+dy), |dx|,|dy| ≤ r.
				for _, f := range []field{pc, qc} {
					for dx := -r; dx <= r; dx++ {
						for dy := -r; dy <= r; dy++ {
							f.streamRow(p.sink, x+dx, y+dy, false)
						}
					}
				}
				pn.streamRow(p.sink, x, y, false)
				pn.streamRow(p.sink, x, y, true)
				qn.streamRow(p.sink, x, y, false)
				qn.streamRow(p.sink, x, y, true)
				for _, f := range params {
					f.streamRow(p.sink, x, y, false)
				}
			}
		}
	}
	return p
}

// Elastic extends Prop with the two-phase structure.
type Elastic struct {
	Prop
}

// NewElastic builds the elastic trace propagator: nine wavefields in two
// phases with the staggered row sets of the velocity–stress kernels.
func NewElastic(sh Shape, sink Sink) *Elastic {
	e := &Elastic{Prop{shape: sh, r: sh.SO / 2, sink: sink, kind: "elastic", blockX: 8, blockY: 8}}
	mk := func() field { return newField(&e.layout, sh.Nx, sh.Ny, sh.Nz, e.r) }
	names := []string{"vx", "vy", "vz", "txx", "tyy", "tzz", "txy", "txz", "tyz",
		"bdt", "l2mdt", "lamdt", "mudt", "taper"}
	e.fields = map[string]field{}
	for _, n := range names {
		e.fields[n] = mk()
	}
	e.buildSparse()
	return e
}

// TimeSkew implements tiling.Propagator: two phases of radius r.
func (e *Elastic) TimeSkew() int { return 2 * e.r }

// MaxPhaseOffset implements tiling.Propagator.
func (e *Elastic) MaxPhaseOffset() int { return e.r }

// Step implements tiling.Propagator with the velocity and stress phases.
func (e *Elastic) Step(t int, raw grid.Region, fused bool) {
	r := e.r
	xs := crossOffsets(r)
	f := e.fields
	vreg := raw.Clamp(e.shape.Nx, e.shape.Ny)
	if !vreg.Empty() {
		for _, b := range vreg.SplitBlocks(e.blockX, e.blockY) {
			for x := b.X0; x < b.X1; x++ {
				for y := b.Y0; y < b.Y1; y++ {
					// vx: txx (x±), txy (y±), txz (center); vy: txy (x±),
					// tyy (y±), tyz (center); vz: txz (x±), tyz (y±), tzz.
					rowSet{xOff: xs, center: false}.stream(f["txx"], e.sink, x, y)
					rowSet{xOff: xs, yOff: xs, center: true}.stream(f["txy"], e.sink, x, y)
					rowSet{xOff: xs, center: true}.stream(f["txz"], e.sink, x, y)
					rowSet{yOff: xs, center: false}.stream(f["tyy"], e.sink, x, y)
					rowSet{yOff: xs, center: true}.stream(f["tyz"], e.sink, x, y)
					f["tzz"].streamRow(e.sink, x, y, false)
					for _, n := range []string{"vx", "vy", "vz"} {
						f[n].streamRow(e.sink, x, y, false)
						f[n].streamRow(e.sink, x, y, true)
					}
					f["bdt"].streamRow(e.sink, x, y, false)
					f["taper"].streamRow(e.sink, x, y, false)
				}
			}
		}
	}
	sreg := raw.Shift(-r, -r).Clamp(e.shape.Nx, e.shape.Ny)
	if !sreg.Empty() {
		for _, b := range sreg.SplitBlocks(e.blockX, e.blockY) {
			for x := b.X0; x < b.X1; x++ {
				for y := b.Y0; y < b.Y1; y++ {
					rowSet{xOff: xs, yOff: xs, center: true}.stream(f["vx"], e.sink, x, y)
					rowSet{xOff: xs, yOff: xs, center: true}.stream(f["vy"], e.sink, x, y)
					rowSet{xOff: xs, yOff: xs, center: true}.stream(f["vz"], e.sink, x, y)
					for _, n := range []string{"txx", "tyy", "tzz", "txy", "txz", "tyz"} {
						f[n].streamRow(e.sink, x, y, false)
						f[n].streamRow(e.sink, x, y, true)
					}
					for _, n := range []string{"l2mdt", "lamdt", "mudt", "taper"} {
						f[n].streamRow(e.sink, x, y, false)
					}
				}
			}
			if fused {
				e.injectFused(b)
			}
		}
	}
}
