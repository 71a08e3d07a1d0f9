package wave

import (
	"fmt"
	"math"

	"wavetile/internal/fd"
	"wavetile/internal/grid"
	"wavetile/internal/model"
	"wavetile/internal/obs"
	"wavetile/internal/sparse"
	"wavetile/internal/tiling"
)

// TTI is the anisotropic acoustic propagator (§III-B): the pseudo-acoustic
// tilted-transverse-isotropy system used throughout industrial RTM/FWI — a
// coupled pair of scalar PDEs on wavefields p and q,
//
//	m·p_tt = (1+2ε)·H(p) + √(1+2δ)·G_z̄z̄(q)
//	m·q_tt = √(1+2δ)·H(p) + G_z̄z̄(q)
//
// where G_z̄z̄ is the second derivative along the (spatially varying) tilted
// symmetry axis (tilt θ, azimuth φ) and H = Δ − G_z̄z̄. Expanding the
// rotated operator G_z̄z̄ = (a∂x + b∂y + c∂z)² with a = sinθcosφ,
// b = sinθsinφ, c = cosθ yields the three pure and three cross second
// derivatives evaluated by the kernel — the "drastically increased operation
// count" the paper attributes to TTI. Damping follows the acoustic scheme.
type TTI struct {
	P  *model.TTIParams
	SO int
	R  int

	Pw, Qw [2]*grid.Grid // ping-pong wavefields

	c2x, c2y, c2z []float32 // 2nd-derivative coefficients / h²
	d1x, d1y, d1z []float32 // 1st-derivative coefficients / h (cross terms)

	aa, bb, cc      *grid.Grid // rotation direction cosines
	e2, sqd         *grid.Grid // 1+2ε, √(1+2δ)
	dm1, dp1i, mdt2 *grid.Grid

	Ops *SparseOps

	blockX, blockY int
	kern           func(t int, reg grid.Region)
	ks             kernState
}

// TTIOpts configures NewTTI.
type TTIOpts struct {
	Params *model.TTIParams
	SO     int
	Src    *sparse.Points
	SrcWav [][]float32
	Rec    *sparse.Points
	// SincSource selects Kaiser-windowed sinc injection.
	SincSource bool
}

// NewTTI builds the TTI propagator, precomputing rotation fields, update
// factors, and sparse-operator structures. Sources are injected into both p
// and q (as in Devito's TTI examples); receivers measure p.
func NewTTI(o TTIOpts) (*TTI, error) {
	p := o.Params
	g := p.Geom
	if g.Nt <= 0 || g.Dt <= 0 {
		return nil, fmt.Errorf("wave: geometry time axis not set (nt=%d dt=%g)", g.Nt, g.Dt)
	}
	r := fd.Radius(o.SO)
	if p.M.H < r {
		return nil, fmt.Errorf("wave: model halo %d smaller than stencil radius %d", p.M.H, r)
	}
	w := &TTI{P: p, SO: o.SO, R: r, blockX: 8, blockY: 8}
	for i := 0; i < 2; i++ {
		w.Pw[i] = grid.New(g.Nx, g.Ny, g.Nz, r)
		w.Qw[i] = grid.New(g.Nx, g.Ny, g.Nz, r)
	}

	c2 := fd.SecondDeriv(o.SO)
	w.c2x = fd.ToF32(c2, 1/(g.Hx*g.Hx))
	w.c2y = fd.ToF32(c2, 1/(g.Hy*g.Hy))
	w.c2z = fd.ToF32(c2, 1/(g.Hz*g.Hz))
	d1 := fd.FirstDeriv(o.SO)
	w.d1x = fd.ToF32(d1, 1/g.Hx)
	w.d1y = fd.ToF32(d1, 1/g.Hy)
	w.d1z = fd.ToF32(d1, 1/g.Hz)

	w.aa = grid.New(g.Nx, g.Ny, g.Nz, r)
	w.bb = grid.New(g.Nx, g.Ny, g.Nz, r)
	w.cc = grid.New(g.Nx, g.Ny, g.Nz, r)
	w.e2 = grid.New(g.Nx, g.Ny, g.Nz, r)
	w.sqd = grid.New(g.Nx, g.Ny, g.Nz, r)
	w.dm1 = grid.New(g.Nx, g.Ny, g.Nz, r)
	w.dp1i = grid.New(g.Nx, g.Ny, g.Nz, r)
	w.mdt2 = grid.New(g.Nx, g.Ny, g.Nz, r)
	dt := float32(g.Dt)
	w.aa.FillFunc(func(x, y, z int) float32 {
		th, ph := float64(p.Theta.At(x, y, z)), float64(p.Phi.At(x, y, z))
		return float32(math.Sin(th) * math.Cos(ph))
	})
	w.bb.FillFunc(func(x, y, z int) float32 {
		th, ph := float64(p.Theta.At(x, y, z)), float64(p.Phi.At(x, y, z))
		return float32(math.Sin(th) * math.Sin(ph))
	})
	w.cc.FillFunc(func(x, y, z int) float32 {
		return float32(math.Cos(float64(p.Theta.At(x, y, z))))
	})
	w.e2.FillFunc(func(x, y, z int) float32 { return 1 + 2*p.Epsilon.At(x, y, z) })
	w.sqd.FillFunc(func(x, y, z int) float32 {
		return float32(math.Sqrt(float64(1 + 2*p.Delta.At(x, y, z))))
	})
	w.dm1.FillFunc(func(x, y, z int) float32 { return 1 - p.Damp.At(x, y, z)*dt })
	w.dp1i.FillFunc(func(x, y, z int) float32 { return 1 / (1 + p.Damp.At(x, y, z)*dt) })
	w.mdt2.FillFunc(func(x, y, z int) float32 { return dt * dt / p.M.At(x, y, z) })

	scale := func(x, y, z int) float32 { return w.mdt2.At(x, y, z) }
	ops, err := NewSparseOps(g.Nx, g.Ny, g.Nz, g.Hx, g.Hy, g.Hz, g.Nt, o.Src, o.SrcWav, o.Rec, scale, o.SincSource)
	if err != nil {
		return nil, err
	}
	w.Ops = ops
	w.selectKernel()
	return w, nil
}

// --- tiling.Propagator ---

// GridShape returns the tiled (x, y) extents.
func (w *TTI) GridShape() (int, int) { return w.P.Geom.Nx, w.P.Geom.Ny }

// Steps returns the number of timesteps.
func (w *TTI) Steps() int { return w.P.Geom.Nt }

// TimeSkew returns the per-timestep wavefront shift. p and q advance
// simultaneously from time-t data, so the skew is the stencil radius.
func (w *TTI) TimeSkew() int { return w.R }

// MaxPhaseOffset is 0: both fields update in a single phase.
func (w *TTI) MaxPhaseOffset() int { return 0 }

// MinTile returns the dependency margin for legal tiles.
func (w *TTI) MinTile() int { return 2 * w.R }

// SetBlocks fixes the parallel sub-block shape.
func (w *TTI) SetBlocks(bx, by int) { w.blockX, w.blockY = bx, by }

// SetFused fixes the sparse-operator path of the Steps that follow.
func (w *TTI) SetFused(fused bool) { w.Ops.fused = fused }

// Step advances p and q from time index t to t+1 on the clamped region
// (instrumented like Acoustic.Step).
func (w *TTI) Step(t int, raw grid.Region, fused bool) {
	if w.ks.generic {
		w.ks.noteStep()
	}
	g := w.P.Geom
	reg := raw.Clamp(g.Nx, g.Ny)
	if reg.Empty() {
		return
	}
	pn, qn := w.Pw[(t+1)&1], w.Qw[(t+1)&1]
	sec := obs.SectionStart()
	tiling.ForBlocksIndexed(reg, w.blockX, w.blockY, func(wk int, b grid.Region) {
		t0 := sec.Now()
		w.kern(t, b)
		sec.Observe(obs.PhaseStencil, wk, t0)
		if fused {
			t1 := sec.Now()
			w.Ops.InjectFused(pn, t, b)
			w.Ops.InjectFused(qn, t, b)
			sec.Observe(obs.PhaseInject, wk, t1)
			t2 := sec.Now()
			w.Ops.SampleFused(pn, t, b)
			sec.Observe(obs.PhaseSample, wk, t2)
		}
		sec.ObserveBlock(t0)
	})
	sec.End(int64(reg.NumPoints()) * int64(g.Nz))
}

// ApplySparse runs the Listing-1 baseline sparse operators.
func (w *TTI) ApplySparse(t int) {
	pn, qn := w.Pw[(t+1)&1], w.Qw[(t+1)&1]
	w.Ops.InjectBaseline(pn, t)
	// The q field receives the same injection; replay it via the direct
	// path (fused flag toggling is handled inside InjectBaseline).
	sparseInjectInto(qn, w.Ops, t)
	w.Ops.InterpolateBaseline(pn, t)
}

// sparseInjectInto repeats the baseline injection into a second field,
// honouring the per-timestep supports of moving sources (whose static
// SrcSup is empty).
func sparseInjectInto(u *grid.Grid, ops *SparseOps, t int) {
	if ops.SrcSupByStep != nil {
		sparse.Inject(u, ops.SrcSupByStep[t], ops.wavAt(t), ops.scale)
		return
	}
	if len(ops.SrcSup) == 0 {
		return
	}
	sparse.Inject(u, ops.SrcSup, ops.wavAt(t), ops.scale)
}

// --- inspection & lifecycle ---

// WavefieldP returns the p grid holding time index t values.
func (w *TTI) WavefieldP(t int) *grid.Grid { return w.Pw[t&1] }

// Fields returns all wavefield buffers for whole-state comparison.
func (w *TTI) Fields() map[string]*grid.Grid {
	return map[string]*grid.Grid{
		"p0": w.Pw[0], "p1": w.Pw[1],
		"q0": w.Qw[0], "q1": w.Qw[1],
	}
}

// Reset zeroes all run state.
func (w *TTI) Reset() {
	for i := 0; i < 2; i++ {
		w.Pw[i].Zero()
		w.Qw[i].Zero()
	}
	w.Ops.Reset()
}

// FlopsPerPoint returns the per-point operation count (roofline model).
func (w *TTI) FlopsPerPoint() int {
	r := w.R
	pure := 3 * (4*r + 1)    // xx, yy, zz per field
	cross := 3 * (6*r*r + 1) // xy, xz, yz per field
	return 2*(pure+cross) + 30
}

// PointsPerStep returns the grid points updated per timestep (both fields).
func (w *TTI) PointsPerStep() int {
	g := w.P.Geom
	return g.Nx * g.Ny * g.Nz
}

// kernelGeneric evaluates the coupled rotated-Laplacian update on reg for
// any radius; the generated kernels specialize it per radius.
func (w *TTI) kernelGeneric(t int, reg grid.Region) {
	p := w.Pw[t&1]
	pn := w.Pw[(t+1)&1]
	q := w.Qw[t&1]
	qn := w.Qw[(t+1)&1]
	nz := p.Nz
	sx, sy := p.SX, p.SY
	pd, pnd, qd, qnd := p.Data, pn.Data, q.Data, qn.Data
	aa, bb, cc := w.aa.Data, w.bb.Data, w.cc.Data
	e2, sqd := w.e2.Data, w.sqd.Data
	dm1, dp1i, mdt2 := w.dm1.Data, w.dp1i.Data, w.mdt2.Data
	r := w.R
	c2x, c2y, c2z := w.c2x, w.c2y, w.c2z
	d1x, d1y, d1z := w.d1x, w.d1y, w.d1z

	// secondDerivs accumulates the three pure second derivatives of f at i.
	secondDerivs := func(f []float32, i int) (xx, yy, zz float32) {
		xx = c2x[0] * f[i]
		yy = c2y[0] * f[i]
		zz = c2z[0] * f[i]
		for k := 1; k <= r; k++ {
			xx += c2x[k] * (f[i+k*sx] + f[i-k*sx])
			yy += c2y[k] * (f[i+k*sy] + f[i-k*sy])
			zz += c2z[k] * (f[i+k] + f[i-k])
		}
		return xx, yy, zz
	}
	// cross accumulates the mixed derivative of f along strides s1, s2 with
	// coefficient tables ca, cb.
	cross := func(f []float32, i int, ca, cb []float32, s1, s2 int) float32 {
		var acc float32
		for ki := 1; ki <= r; ki++ {
			a1 := i + ki*s1
			a2 := i - ki*s1
			var inner float32
			for kj := 1; kj <= r; kj++ {
				inner += cb[kj] * (f[a1+kj*s2] - f[a1-kj*s2] - f[a2+kj*s2] + f[a2-kj*s2])
			}
			acc += ca[ki] * inner
		}
		return acc
	}
	gzz := func(f []float32, i int, a, b, c float32) float32 {
		xx, yy, zz := secondDerivs(f, i)
		g := a*a*xx + b*b*yy + c*c*zz
		g += 2 * a * b * cross(f, i, d1x, d1y, sx, sy)
		g += 2 * a * c * cross(f, i, d1x, d1z, sx, 1)
		g += 2 * b * c * cross(f, i, d1y, d1z, sy, 1)
		return g
	}

	for x := reg.X0; x < reg.X1; x++ {
		for y := reg.Y0; y < reg.Y1; y++ {
			base := p.Idx(x, y, 0)
			for z := 0; z < nz; z++ {
				i := base + z
				a, b, c := aa[i], bb[i], cc[i]
				pxx, pyy, pzz := secondDerivs(pd, i)
				gzzP := a*a*pxx + b*b*pyy + c*c*pzz +
					2*a*b*cross(pd, i, d1x, d1y, sx, sy) +
					2*a*c*cross(pd, i, d1x, d1z, sx, 1) +
					2*b*c*cross(pd, i, d1y, d1z, sy, 1)
				hp := (pxx + pyy + pzz) - gzzP
				gzzQ := gzz(qd, i, a, b, c)
				pnd[i] = ftz((2*pd[i] - dm1[i]*pnd[i] + mdt2[i]*(e2[i]*hp+sqd[i]*gzzQ)) * dp1i[i])
				qnd[i] = ftz((2*qd[i] - dm1[i]*qnd[i] + mdt2[i]*(sqd[i]*hp+gzzQ)) * dp1i[i])
			}
		}
	}
}
