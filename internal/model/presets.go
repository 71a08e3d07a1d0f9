package model

import (
	"math"

	"wavetile/internal/grid"
)

// The presets below are the subsurface models used by the benchmark harness
// and the examples. The paper benchmarks unspecified "velocity models of
// 512³ grid points"; we use a layered model of seismically typical
// velocities (water-bottom 1.5 km/s down to 3.5 km/s basement), which yields
// comparable CFL timestep counts, and a homogeneous model for analytic
// sanity tests.

// AcousticParams bundles the parameter fields of the isotropic acoustic
// propagator (§III-A): squared slowness m = 1/v² and the damping mask.
type AcousticParams struct {
	Geom Geometry
	Vmax float64
	M    *grid.Grid // 1/v² (s²/m²)
	Damp *grid.Grid // σ (1/s)
}

// NewAcoustic builds acoustic parameter fields from a velocity function
// (m/s). halo must cover the stencil radius of the space order in use.
func NewAcoustic(geom Geometry, halo int, vp FieldFunc) *AcousticParams {
	p := &AcousticParams{Geom: geom}
	p.M, p.Vmax = geom.fillFieldMax(halo, func(x, y, z float64) (float64, float64) {
		v := vp(x, y, z)
		return 1 / (v * v), v
	})
	p.Damp = geom.DampField(halo, p.Vmax)
	return p
}

// fillFieldMax is FillField for an f that reports, beside the value to
// store, a quantity whose maximum over the grid (or 0, if none is positive)
// is returned too. FillFunc fills x-planes in parallel, so the maximum is
// kept per plane — each slot has one writer — and reduced afterwards: the
// result does not depend on how the planes interleave.
func (g Geometry) fillFieldMax(halo int, f func(x, y, z float64) (val, tracked float64)) (*grid.Grid, float64) {
	out := grid.New(g.Nx, g.Ny, g.Nz, halo)
	planeMax := make([]float64, g.Nx)
	out.FillFunc(func(x, y, z int) float32 {
		v, m := f(float64(x)*g.Hx, float64(y)*g.Hy, float64(z)*g.Hz)
		if m > planeMax[x] {
			planeMax[x] = m
		}
		return float32(v)
	})
	max := 0.0
	for _, m := range planeMax {
		if m > max {
			max = m
		}
	}
	return out, max
}

// TTIParams bundles the anisotropic acoustic (TTI) parameter fields
// (§III-B): m, damping, Thomsen parameters ε and δ, and the tilt/azimuth
// angles θ, φ of the rotated Laplacian.
type TTIParams struct {
	Geom                       Geometry
	Vmax, EpsMax               float64
	M, Damp                    *grid.Grid
	Epsilon, Delta, Theta, Phi *grid.Grid
}

// NewTTI builds TTI parameter fields; eps/delta/theta/phi are sampled like
// the velocity (theta/phi in radians, spatially dependent as in the paper).
func NewTTI(geom Geometry, halo int, vp, eps, delta, theta, phi FieldFunc) *TTIParams {
	p := &TTIParams{Geom: geom}
	p.M, p.Vmax = geom.fillFieldMax(halo, func(x, y, z float64) (float64, float64) {
		v := vp(x, y, z)
		return 1 / (v * v), v
	})
	p.Epsilon, p.EpsMax = geom.fillFieldMax(halo, func(x, y, z float64) (float64, float64) {
		e := eps(x, y, z)
		return e, e
	})
	p.Delta = geom.FillField(halo, delta)
	p.Theta = geom.FillField(halo, theta)
	p.Phi = geom.FillField(halo, phi)
	p.Damp = geom.DampField(halo, p.Vmax)
	return p
}

// ElasticParams bundles the isotropic elastic parameter fields (§III-C):
// Lamé parameters λ, μ, buoyancy 1/ρ, and a Cerjan-style multiplicative
// taper for the absorbing layers (first-order systems damp by tapering).
type ElasticParams struct {
	Geom          Geometry
	VpMax         float64
	Lam, Mu, Buoy *grid.Grid
	Taper         *grid.Grid // per-step multiplicative absorbing taper ≤ 1
}

// NewElastic builds elastic parameter fields from vp, vs (m/s) and density
// rho (kg/m³): λ = ρ(vp²−2vs²), μ = ρvs², buoyancy 1/ρ.
func NewElastic(geom Geometry, halo int, vp, vs, rho FieldFunc) *ElasticParams {
	p := &ElasticParams{Geom: geom}
	p.Lam, p.VpMax = geom.fillFieldMax(halo, func(x, y, z float64) (float64, float64) {
		vpv, vsv, r := vp(x, y, z), vs(x, y, z), rho(x, y, z)
		return r * (vpv*vpv - 2*vsv*vsv), vpv
	})
	p.Mu = geom.FillField(halo, func(x, y, z float64) float64 {
		vsv, r := vs(x, y, z), rho(x, y, z)
		return r * vsv * vsv
	})
	p.Buoy = geom.FillField(halo, func(x, y, z float64) float64 { return 1 / rho(x, y, z) })
	// Cerjan taper: fields are multiplied by exp(-(a·pos)²) each step inside
	// the layer; built from the damp field so the profile matches.
	damp := geom.DampField(halo, 1) // unit vmax: profile shape only
	p.Taper = grid.New(geom.Nx, geom.Ny, geom.Nz, halo)
	sMax := 0.0
	for i, v := range damp.Data {
		_ = i
		if float64(v) > sMax {
			sMax = float64(v)
		}
	}
	// Cerjan-style taper strength: per step the innermost layer point keeps
	// exp(-a²·pos²) of its amplitude, with a chosen so the outermost point
	// attenuates by ≈ exp(-0.09) ≈ 9% per step — the classic choice for
	// ~10-point sponges.
	const cerjanA = 0.3
	p.Taper.FillFunc(func(x, y, z int) float32 {
		if sMax == 0 {
			return 1
		}
		pos := float64(damp.At(x, y, z)) / sMax
		return float32(math.Exp(-cerjanA * cerjanA * pos * pos))
	})
	return p
}

// Homogeneous returns a constant field.
func Homogeneous(v float64) FieldFunc {
	return func(x, y, z float64) float64 { return v }
}

// Layered returns a field that steps through vals at equal depth (z)
// intervals over depth zmax — the classic layer-cake subsurface.
func Layered(zmax float64, vals ...float64) FieldFunc {
	n := len(vals)
	return func(x, y, z float64) float64 {
		i := int(z / zmax * float64(n))
		if i < 0 {
			i = 0
		}
		if i >= n {
			i = n - 1
		}
		return vals[i]
	}
}

// Gradient returns a field increasing linearly from v0 at z=0 to v1 at
// z=zmax.
func Gradient(v0, v1, zmax float64) FieldFunc {
	return func(x, y, z float64) float64 {
		t := z / zmax
		if t < 0 {
			t = 0
		}
		if t > 1 {
			t = 1
		}
		return v0 + t*(v1-v0)
	}
}
