package wave

import (
	"fmt"

	"wavetile/internal/fd"
	"wavetile/internal/grid"
	"wavetile/internal/model"
	"wavetile/internal/obs"
	"wavetile/internal/sparse"
	"wavetile/internal/tiling"
)

// Elastic is the isotropic elastic propagator (§III-C): the Virieux
// velocity–stress formulation on a staggered grid,
//
//	ρ·∂v/∂t = ∇·τ
//	∂τ/∂t   = λ·tr(∇v)·I + μ(∇v + ∇vᵀ)
//
// a first-order-in-time coupled system of a vector field v (3 components)
// and a symmetric tensor field τ (6 components) — nine wavefields, the
// "drastically increased data movement" case of the paper. Each timestep
// runs two phases: velocities from stresses, then stresses from the fresh
// velocities. Under wave-front temporal blocking the stress phase trails the
// velocity phase by the stencil radius (the shifted wavefront angle of the
// multi-grid scheme, Fig. 8b), and the per-timestep skew is twice the
// radius. Absorbing boundaries use a Cerjan multiplicative taper.
type Elastic struct {
	P  *model.ElasticParams
	SO int
	R  int

	Vx, Vy, Vz                     *grid.Grid
	Txx, Tyy, Tzz, Txy, Txz, Tyz   *grid.Grid
	bdt, l2mdt, lamdt, mudt, taper *grid.Grid

	cs            []float32 // staggered coefficients; csx/csy/csz fold in 1/h
	csx, csy, csz []float32

	Ops *SparseOps

	blockX, blockY int

	velKern, stressKern func(grid.Region)
	ks                  kernState
}

// ElasticOpts configures NewElastic.
type ElasticOpts struct {
	Params *model.ElasticParams
	SO     int
	Src    *sparse.Points
	SrcWav [][]float32
	Rec    *sparse.Points
	// SincSource selects Kaiser-windowed sinc injection.
	SincSource bool
}

// NewElastic builds the propagator. Sources are explosive: injected into the
// diagonal stresses τxx, τyy, τzz scaled by dt; receivers measure vz.
func NewElastic(o ElasticOpts) (*Elastic, error) {
	p := o.Params
	g := p.Geom
	if g.Nt <= 0 || g.Dt <= 0 {
		return nil, fmt.Errorf("wave: geometry time axis not set (nt=%d dt=%g)", g.Nt, g.Dt)
	}
	r := fd.Radius(o.SO)
	if p.Lam.H < r {
		return nil, fmt.Errorf("wave: model halo %d smaller than stencil radius %d", p.Lam.H, r)
	}
	e := &Elastic{P: p, SO: o.SO, R: r, blockX: 8, blockY: 8}
	mk := func() *grid.Grid { return grid.New(g.Nx, g.Ny, g.Nz, r) }
	e.Vx, e.Vy, e.Vz = mk(), mk(), mk()
	e.Txx, e.Tyy, e.Tzz = mk(), mk(), mk()
	e.Txy, e.Txz, e.Tyz = mk(), mk(), mk()

	cs := fd.StaggeredFirstDeriv(o.SO)
	e.cs = fd.ToF32(cs, 1)
	e.csx = fd.ToF32(cs, 1/g.Hx)
	e.csy = fd.ToF32(cs, 1/g.Hy)
	e.csz = fd.ToF32(cs, 1/g.Hz)

	dt := float32(g.Dt)
	e.bdt, e.l2mdt, e.lamdt, e.mudt, e.taper = mk(), mk(), mk(), mk(), mk()
	e.bdt.FillFunc(func(x, y, z int) float32 { return dt * p.Buoy.At(x, y, z) })
	e.l2mdt.FillFunc(func(x, y, z int) float32 {
		return dt * (p.Lam.At(x, y, z) + 2*p.Mu.At(x, y, z))
	})
	e.lamdt.FillFunc(func(x, y, z int) float32 { return dt * p.Lam.At(x, y, z) })
	e.mudt.FillFunc(func(x, y, z int) float32 { return dt * p.Mu.At(x, y, z) })
	e.taper.FillFunc(func(x, y, z int) float32 { return p.Taper.At(x, y, z) })

	scale := func(x, y, z int) float32 { return dt }
	ops, err := NewSparseOps(g.Nx, g.Ny, g.Nz, g.Hx, g.Hy, g.Hz, g.Nt, o.Src, o.SrcWav, o.Rec, scale, o.SincSource)
	if err != nil {
		return nil, err
	}
	e.Ops = ops
	e.selectKernel()
	return e, nil
}

// --- tiling.Propagator ---

// GridShape returns the tiled (x, y) extents.
func (e *Elastic) GridShape() (int, int) { return e.P.Geom.Nx, e.P.Geom.Ny }

// Steps returns the number of timesteps.
func (e *Elastic) Steps() int { return e.P.Geom.Nt }

// TimeSkew is 2·radius: the velocity and stress phases each consume a halo
// of radius points per timestep.
func (e *Elastic) TimeSkew() int { return 2 * e.R }

// MaxPhaseOffset is the stencil radius: the stress phase trails the
// velocity phase by r (Fig. 8b).
func (e *Elastic) MaxPhaseOffset() int { return e.R }

// MinTile returns the dependency margin for legal tiles.
func (e *Elastic) MinTile() int { return 2 * e.R }

// SetBlocks fixes the parallel sub-block shape.
func (e *Elastic) SetBlocks(bx, by int) { e.blockX, e.blockY = bx, by }

// SetFused fixes the sparse-operator path of the Steps that follow.
func (e *Elastic) SetFused(fused bool) { e.Ops.fused = fused }

// Step advances all nine fields from time index t to t+1 on the raw region:
// first the velocity phase on the clamped base region, then the stress
// phase on the region shifted back by the radius. One obs section spans
// both phases (both count as PhaseStencil; sampling and injection are
// attributed to their own phases).
func (e *Elastic) Step(t int, raw grid.Region, fused bool) {
	if e.ks.generic {
		e.ks.noteStep()
	}
	g := e.P.Geom
	vreg := raw.Clamp(g.Nx, g.Ny)
	sreg := raw.Shift(-e.R, -e.R).Clamp(g.Nx, g.Ny)
	sec := obs.SectionStart()
	if !vreg.Empty() {
		tiling.ForBlocksIndexed(vreg, e.blockX, e.blockY, func(w int, b grid.Region) {
			t0 := sec.Now()
			e.velKern(b)
			sec.Observe(obs.PhaseStencil, w, t0)
			if fused {
				t1 := sec.Now()
				e.Ops.SampleFused(e.Vz, t, b)
				sec.Observe(obs.PhaseSample, w, t1)
			}
			sec.ObserveBlock(t0)
		})
	}
	if !sreg.Empty() {
		tiling.ForBlocksIndexed(sreg, e.blockX, e.blockY, func(w int, b grid.Region) {
			t0 := sec.Now()
			e.stressKern(b)
			sec.Observe(obs.PhaseStencil, w, t0)
			if fused {
				t1 := sec.Now()
				e.Ops.InjectFused(e.Txx, t, b)
				e.Ops.InjectFused(e.Tyy, t, b)
				e.Ops.InjectFused(e.Tzz, t, b)
				sec.Observe(obs.PhaseInject, w, t1)
			}
			sec.ObserveBlock(t0)
		})
	}
	sec.End(int64(vreg.NumPoints()+sreg.NumPoints()) * int64(g.Nz))
}

// ApplySparse runs the Listing-1 baseline sparse operators: explosive
// injection into the diagonal stresses and vz interpolation.
func (e *Elastic) ApplySparse(t int) {
	e.Ops.InjectBaseline(e.Txx, t)
	sparseInjectInto(e.Tyy, e.Ops, t)
	sparseInjectInto(e.Tzz, e.Ops, t)
	if len(e.Ops.RecSup) > 0 {
		sparse.Interpolate(e.Vz, e.Ops.RecSup, e.Ops.recDirect[t])
	}
}

// --- inspection & lifecycle ---

// Fields returns all wavefield buffers for whole-state comparison.
func (e *Elastic) Fields() map[string]*grid.Grid {
	return map[string]*grid.Grid{
		"vx": e.Vx, "vy": e.Vy, "vz": e.Vz,
		"txx": e.Txx, "tyy": e.Tyy, "tzz": e.Tzz,
		"txy": e.Txy, "txz": e.Txz, "tyz": e.Tyz,
	}
}

// Reset zeroes all run state.
func (e *Elastic) Reset() {
	for _, f := range e.Fields() {
		f.Zero()
	}
	e.Ops.Reset()
}

// FlopsPerPoint returns the per-point operation count across both phases.
func (e *Elastic) FlopsPerPoint() int { return 54*e.R + 33 }

// PointsPerStep returns the grid points updated per timestep.
func (e *Elastic) PointsPerStep() int {
	g := e.P.Geom
	return g.Nx * g.Ny * g.Nz
}

// velKernelGeneric updates vx, vy, vz from the stresses on reg at any
// radius; the generated kernels specialize it per radius.
//
// Staggering: vx lives at (i+½,j,k), vy at (i,j+½,k), vz at (i,j,k+½);
// diagonal stresses at (i,j,k), τxy at (i+½,j+½,k), τxz at (i+½,j,k+½),
// τyz at (i,j+½,k+½). df computes a staggered derivative a half cell up
// (forward), db a half cell down (backward).
func (e *Elastic) velKernelGeneric(reg grid.Region) {
	nz := e.Vx.Nz
	sx, sy := e.Vx.SX, e.Vx.SY
	vx, vy, vz := e.Vx.Data, e.Vy.Data, e.Vz.Data
	txx, tyy, tzz := e.Txx.Data, e.Tyy.Data, e.Tzz.Data
	txy, txz, tyz := e.Txy.Data, e.Txz.Data, e.Tyz.Data
	bdt, taper := e.bdt.Data, e.taper.Data
	r := e.R
	csx, csy, csz := e.csx, e.csy, e.csz

	df := func(f []float32, i, s int, c []float32) float32 {
		var acc float32
		for k := 1; k <= r; k++ {
			acc += c[k] * (f[i+k*s] - f[i-(k-1)*s])
		}
		return acc
	}
	db := func(f []float32, i, s int, c []float32) float32 {
		var acc float32
		for k := 1; k <= r; k++ {
			acc += c[k] * (f[i+(k-1)*s] - f[i-k*s])
		}
		return acc
	}

	for x := reg.X0; x < reg.X1; x++ {
		for y := reg.Y0; y < reg.Y1; y++ {
			base := e.Vx.Idx(x, y, 0)
			for z := 0; z < nz; z++ {
				i := base + z
				vx[i] = ftz((vx[i] + bdt[i]*(df(txx, i, sx, csx)+db(txy, i, sy, csy)+db(txz, i, 1, csz))) * taper[i])
				vy[i] = ftz((vy[i] + bdt[i]*(db(txy, i, sx, csx)+df(tyy, i, sy, csy)+db(tyz, i, 1, csz))) * taper[i])
				vz[i] = ftz((vz[i] + bdt[i]*(db(txz, i, sx, csx)+db(tyz, i, sy, csy)+df(tzz, i, 1, csz))) * taper[i])
			}
		}
	}
}

// stressKernelGeneric updates the six stresses from the fresh velocities on
// reg at any radius; the generated kernels specialize it per radius.
func (e *Elastic) stressKernelGeneric(reg grid.Region) {
	nz := e.Vx.Nz
	sx, sy := e.Vx.SX, e.Vx.SY
	vx, vy, vz := e.Vx.Data, e.Vy.Data, e.Vz.Data
	txx, tyy, tzz := e.Txx.Data, e.Tyy.Data, e.Tzz.Data
	txy, txz, tyz := e.Txy.Data, e.Txz.Data, e.Tyz.Data
	l2mdt, lamdt, mudt, taper := e.l2mdt.Data, e.lamdt.Data, e.mudt.Data, e.taper.Data
	r := e.R
	csx, csy, csz := e.csx, e.csy, e.csz

	df := func(f []float32, i, s int, c []float32) float32 {
		var acc float32
		for k := 1; k <= r; k++ {
			acc += c[k] * (f[i+k*s] - f[i-(k-1)*s])
		}
		return acc
	}
	db := func(f []float32, i, s int, c []float32) float32 {
		var acc float32
		for k := 1; k <= r; k++ {
			acc += c[k] * (f[i+(k-1)*s] - f[i-k*s])
		}
		return acc
	}

	for x := reg.X0; x < reg.X1; x++ {
		for y := reg.Y0; y < reg.Y1; y++ {
			base := e.Vx.Idx(x, y, 0)
			for z := 0; z < nz; z++ {
				i := base + z
				dvxdx := db(vx, i, sx, csx)
				dvydy := db(vy, i, sy, csy)
				dvzdz := db(vz, i, 1, csz)
				txx[i] = ftz((txx[i] + l2mdt[i]*dvxdx + lamdt[i]*(dvydy+dvzdz)) * taper[i])
				tyy[i] = ftz((tyy[i] + l2mdt[i]*dvydy + lamdt[i]*(dvxdx+dvzdz)) * taper[i])
				tzz[i] = ftz((tzz[i] + l2mdt[i]*dvzdz + lamdt[i]*(dvxdx+dvydy)) * taper[i])
				txy[i] = ftz((txy[i] + mudt[i]*(df(vy, i, sx, csx)+df(vx, i, sy, csy))) * taper[i])
				txz[i] = ftz((txz[i] + mudt[i]*(df(vz, i, sx, csx)+df(vx, i, 1, csz))) * taper[i])
				tyz[i] = ftz((tyz[i] + mudt[i]*(df(vz, i, sy, csy)+df(vy, i, 1, csz))) * taper[i])
			}
		}
	}
}
