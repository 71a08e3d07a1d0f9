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

// Acoustic is the isotropic acoustic propagator (§III-A): the single scalar
// PDE m·∂²u/∂t² − Δu = q with sponge damping, discretized with a 2nd-order
// leapfrog in time and a symmetric stencil of configurable space order. The
// damped update, per point,
//
//	u⁺ = (2u − (1−σdt)·u⁻ + (dt²/m)·Δₕu + injection) / (1+σdt)
//
// is evaluated with precomputed per-point factors dm1 = 1−σdt,
// dp1i = 1/(1+σdt) and mdt2 = dt²/m. Wavefields use two in-place buffers
// (u⁺ overwrites u⁻), the memory layout temporal blocking relies on (Fig. 7).
type Acoustic struct {
	P  *model.AcousticParams
	SO int // space order
	R  int // stencil radius = SO/2

	U [2]*grid.Grid // ping-pong wavefields; U[t&1] holds time index t

	cx, cy, cz []float32 // 2nd-derivative coefficients folded with 1/h²
	c0         float32   // combined center coefficient

	dm1, dp1i, mdt2 *grid.Grid

	Ops *SparseOps

	blockX, blockY int
	kern           func(t int, reg grid.Region)
	ks             kernState
}

// AcousticOpts configures NewAcoustic.
type AcousticOpts struct {
	Params *model.AcousticParams
	SO     int // space order: positive even; the paper uses 4, 8, 12
	Src    *sparse.Points
	SrcWav [][]float32 // one wavelet series (≥ nt samples) per source
	Rec    *sparse.Points
	// SincSource selects Kaiser-windowed sinc injection (8³-point support)
	// instead of trilinear.
	SincSource bool
	// SincReceivers selects Kaiser-windowed sinc measurement interpolation.
	SincReceivers bool
}

// NewAcoustic builds the propagator, precomputing the update factors and the
// sparse-operator structures (masks, decomposed wavefields, sampler).
func NewAcoustic(o AcousticOpts) (*Acoustic, error) {
	p := o.Params
	g := p.Geom
	if g.Nt <= 0 || g.Dt <= 0 {
		return nil, fmt.Errorf("wave: geometry time axis not set (nt=%d dt=%g)", g.Nt, g.Dt)
	}
	r := fd.Radius(o.SO)
	if p.M.H < r {
		return nil, fmt.Errorf("wave: model halo %d smaller than stencil radius %d", p.M.H, r)
	}
	a := &Acoustic{P: p, SO: o.SO, R: r, blockX: 8, blockY: 8}
	a.U[0] = grid.New(g.Nx, g.Ny, g.Nz, r)
	a.U[1] = grid.New(g.Nx, g.Ny, g.Nz, r)

	c := fd.SecondDeriv(o.SO)
	a.cx = fd.ToF32(c, 1/(g.Hx*g.Hx))
	a.cy = fd.ToF32(c, 1/(g.Hy*g.Hy))
	a.cz = fd.ToF32(c, 1/(g.Hz*g.Hz))
	a.c0 = a.cx[0] + a.cy[0] + a.cz[0]

	a.dm1 = grid.New(g.Nx, g.Ny, g.Nz, r)
	a.dp1i = grid.New(g.Nx, g.Ny, g.Nz, r)
	a.mdt2 = grid.New(g.Nx, g.Ny, g.Nz, r)
	dt := float32(g.Dt)
	a.dm1.FillFunc(func(x, y, z int) float32 { return 1 - p.Damp.At(x, y, z)*dt })
	a.dp1i.FillFunc(func(x, y, z int) float32 { return 1 / (1 + p.Damp.At(x, y, z)*dt) })
	a.mdt2.FillFunc(func(x, y, z int) float32 { return dt * dt / p.M.At(x, y, z) })

	scale := func(x, y, z int) float32 { return a.mdt2.At(x, y, z) }
	ops, err := newSparseOps(g.Nx, g.Ny, g.Nz, g.Hx, g.Hy, g.Hz, g.Nt, o.Src, o.SrcWav, o.Rec, scale, o.SincSource, o.SincReceivers)
	if err != nil {
		return nil, err
	}
	a.Ops = ops

	a.selectKernel()
	return a, nil
}

// --- tiling.Propagator ---

// GridShape returns the tiled (x, y) extents.
func (a *Acoustic) GridShape() (int, int) { return a.P.Geom.Nx, a.P.Geom.Ny }

// Steps returns the number of timesteps.
func (a *Acoustic) Steps() int { return a.P.Geom.Nt }

// TimeSkew returns the per-timestep wavefront shift (the stencil radius).
func (a *Acoustic) TimeSkew() int { return a.R }

// MaxPhaseOffset is 0: the acoustic update is single-phase.
func (a *Acoustic) MaxPhaseOffset() int { return 0 }

// MinTile returns the dependency margin for legal tiles (2·radius).
func (a *Acoustic) MinTile() int { return 2 * a.R }

// SetBlocks fixes the parallel sub-block shape.
func (a *Acoustic) SetBlocks(bx, by int) { a.blockX, a.blockY = bx, by }

// SetFused fixes the sparse-operator path of the Steps that follow.
func (a *Acoustic) SetFused(fused bool) { a.Ops.fused = fused }

// Step advances u from time index t to t+1 on the clamped region, applying
// fused injection and receiver sampling per block when fused is set. With
// observability on, per-block phase timings are attributed per worker; the
// work and its order are the same either way.
func (a *Acoustic) Step(t int, raw grid.Region, fused bool) {
	if a.ks.generic {
		a.ks.noteStep()
	}
	g := a.P.Geom
	reg := raw.Clamp(g.Nx, g.Ny)
	if reg.Empty() {
		return
	}
	un := a.U[(t+1)&1]
	sec := obs.SectionStart()
	tiling.ForBlocksIndexed(reg, a.blockX, a.blockY, func(w int, b grid.Region) {
		t0 := sec.Now()
		a.kern(t, b)
		sec.Observe(obs.PhaseStencil, w, t0)
		if fused {
			t1 := sec.Now()
			a.Ops.InjectFused(un, t, b)
			sec.Observe(obs.PhaseInject, w, t1)
			t2 := sec.Now()
			a.Ops.SampleFused(un, t, b)
			sec.Observe(obs.PhaseSample, w, t2)
		}
		sec.ObserveBlock(t0)
	})
	sec.End(int64(reg.NumPoints()) * int64(g.Nz))
}

// ApplySparse runs the Listing-1 baseline sparse operators after a full
// unfused timestep.
func (a *Acoustic) ApplySparse(t int) {
	un := a.U[(t+1)&1]
	a.Ops.InjectBaseline(un, t)
	a.Ops.InterpolateBaseline(un, t)
}

// --- inspection & lifecycle ---

// Wavefield returns the grid holding time index t values.
func (a *Acoustic) Wavefield(t int) *grid.Grid { return a.U[t&1] }

// Final returns the wavefield at the final time index (Steps()).
func (a *Acoustic) Final() *grid.Grid { return a.U[a.P.Geom.Nt&1] }

// Fields returns the wavefield buffers for whole-state comparison.
func (a *Acoustic) Fields() map[string]*grid.Grid {
	return map[string]*grid.Grid{"u0": a.U[0], "u1": a.U[1]}
}

// Reset zeroes all run state so the propagator can be re-run.
func (a *Acoustic) Reset() {
	a.U[0].Zero()
	a.U[1].Zero()
	a.Ops.Reset()
}

// FlopsPerPoint returns the per-point floating-point operation count of the
// update, used by the roofline model.
func (a *Acoustic) FlopsPerPoint() int {
	// Laplacian: center mul + R per dim × (add,add,mul,acc → 4) × 3 dims,
	// plus the 6-op damped leapfrog combination.
	return 1 + 12*a.R + 7
}

// PointsPerStep returns the grid points updated per timestep.
func (a *Acoustic) PointsPerStep() int {
	g := a.P.Geom
	return g.Nx * g.Ny * g.Nz
}

// kernelGeneric is the radius-generic damped leapfrog update. The
// specialized kernels below unroll the coefficient loop for the paper's
// space orders; all variants compute the identical expression.
func (a *Acoustic) kernelGeneric(t int, reg grid.Region) {
	u := a.U[t&1]
	un := a.U[(t+1)&1]
	nz := u.Nz
	sx, sy := u.SX, u.SY
	ud, und := u.Data, un.Data
	dm1, dp1i, mdt2 := a.dm1.Data, a.dp1i.Data, a.mdt2.Data
	r := a.R
	for x := reg.X0; x < reg.X1; x++ {
		for y := reg.Y0; y < reg.Y1; y++ {
			base := u.Idx(x, y, 0)
			for z := 0; z < nz; z++ {
				i := base + z
				lap := a.c0 * ud[i]
				for k := 1; k <= r; k++ {
					lap += a.cx[k]*(ud[i+k*sx]+ud[i-k*sx]) +
						a.cy[k]*(ud[i+k*sy]+ud[i-k*sy]) +
						a.cz[k]*(ud[i+k]+ud[i-k])
				}
				und[i] = ftz((2*ud[i] - dm1[i]*und[i] + mdt2[i]*lap) * dp1i[i])
			}
		}
	}
}
