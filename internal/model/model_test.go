package model

import (
	"math"
	"testing"
	"testing/quick"

	"wavetile/internal/grid"
	"wavetile/internal/par"
)

func TestGeometryBoxes(t *testing.T) {
	g := Geometry{Nx: 100, Ny: 80, Nz: 60, Hx: 10, Hy: 10, Hz: 10, NBL: 10}
	lo, hi := g.PhysicalBox()
	if lo != [3]float64{100, 100, 100} {
		t.Fatalf("lo %v", lo)
	}
	if hi != [3]float64{890, 690, 490} {
		t.Fatalf("hi %v", hi)
	}
	c := g.Center()
	if c != [3]float64{495, 395, 295} {
		t.Fatalf("center %v", c)
	}
}

func TestSetTime(t *testing.T) {
	g := Geometry{Nx: 10, Ny: 10, Nz: 10, Hx: 10, Hy: 10, Hz: 10}
	g.SetTime(0.512, 0.002)
	if g.Nt != 257 {
		t.Fatalf("nt = %d", g.Nt)
	}
	if g.Dt != 0.002 {
		t.Fatalf("dt = %g", g.Dt)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("invalid time axis accepted")
		}
	}()
	g.SetTime(-1, 0.002)
}

func TestDampFieldProfile(t *testing.T) {
	g := Geometry{Nx: 30, Ny: 30, Nz: 30, Hx: 10, Hy: 10, Hz: 10, NBL: 6}
	d := g.DampField(0, 3000)
	// Zero in the interior.
	if d.At(15, 15, 15) != 0 || d.At(6, 6, 6) != 0 {
		t.Fatal("damping nonzero in interior")
	}
	// Positive and monotonically increasing toward the face.
	prev := float32(-1)
	for x := 5; x >= 0; x-- {
		v := d.At(x, 15, 15)
		if v < prev {
			t.Fatalf("damp not monotone at x=%d: %g < %g", x, v, prev)
		}
		prev = v
	}
	if prev <= 0 {
		t.Fatal("no damping at face")
	}
	// Symmetric faces.
	if d.At(0, 15, 15) != d.At(29, 15, 15) || d.At(15, 0, 15) != d.At(15, 15, 29) {
		t.Fatal("damping not symmetric")
	}
	// NBL=0 means no damping anywhere.
	g0 := Geometry{Nx: 8, Ny: 8, Nz: 8, Hx: 10, Hy: 10, Hz: 10}
	if g0.DampField(0, 3000).MaxAbs() != 0 {
		t.Fatal("NBL=0 produced damping")
	}
}

func TestCriticalDtClassicBound(t *testing.T) {
	// For SO2 the rigorous acoustic bound is h/(v·√3); with cfl=1 we must
	// reproduce it exactly.
	g := Geometry{Nx: 10, Ny: 10, Nz: 10, Hx: 10, Hy: 10, Hz: 10}
	got := g.CriticalDtAcoustic(2, 3000, 1)
	want := 10.0 / (3000 * math.Sqrt(3))
	if math.Abs(got-want) > 1e-15 {
		t.Fatalf("SO2 dt %g, want %g", got, want)
	}
	// Higher orders are more restrictive.
	if g.CriticalDtAcoustic(8, 3000, 1) >= got {
		t.Fatal("SO8 dt not smaller than SO2 dt")
	}
}

func TestCriticalDtMonotoneProperty(t *testing.T) {
	// dt decreases with velocity and with space order; scales with h.
	f := func(vu uint16, ou uint8) bool {
		v := 1500 + float64(vu%3000)
		so := 2 * (int(ou%6) + 1)
		g := Geometry{Nx: 10, Ny: 10, Nz: 10, Hx: 10, Hy: 10, Hz: 10}
		g2 := g
		g2.Hx, g2.Hy, g2.Hz = 20, 20, 20
		dt := g.CriticalDtAcoustic(so, v, DefaultCFL)
		if g.CriticalDtAcoustic(so, v*1.5, DefaultCFL) >= dt {
			return false
		}
		if math.Abs(g2.CriticalDtAcoustic(so, v, DefaultCFL)-2*dt) > 1e-12 {
			return false
		}
		return g.CriticalDtElastic(so, v, DefaultCFL) > 0 && g.CriticalDtTTI(so, v, 0.3, DefaultCFL) > 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPresetFields(t *testing.T) {
	lay := Layered(100, 1500, 2500, 3500)
	if lay(0, 0, 0) != 1500 || lay(0, 0, 50) != 2500 || lay(0, 0, 99) != 3500 {
		t.Fatal("Layered thresholds wrong")
	}
	if lay(0, 0, -5) != 1500 || lay(0, 0, 1e6) != 3500 {
		t.Fatal("Layered clamping wrong")
	}
	gr := Gradient(1000, 2000, 100)
	if gr(0, 0, 0) != 1000 || gr(0, 0, 100) != 2000 || gr(0, 0, 50) != 1500 {
		t.Fatal("Gradient wrong")
	}
	if gr(0, 0, -1) != 1000 || gr(0, 0, 101) != 2000 {
		t.Fatal("Gradient clamping wrong")
	}
	if Homogeneous(42)(1, 2, 3) != 42 {
		t.Fatal("Homogeneous wrong")
	}
}

func TestNewAcousticParams(t *testing.T) {
	g := Geometry{Nx: 12, Ny: 12, Nz: 12, Hx: 10, Hy: 10, Hz: 10, NBL: 3}
	p := NewAcoustic(g, 2, Gradient(1500, 3000, 110))
	if p.Vmax != 3000 {
		t.Fatalf("Vmax %g", p.Vmax)
	}
	// m = 1/v²: at z=0, v=1500.
	if math.Abs(float64(p.M.At(5, 5, 0))-1/(1500.0*1500.0)) > 1e-12 {
		t.Fatalf("m at surface %g", p.M.At(5, 5, 0))
	}
	if p.Damp.At(6, 6, 6) != 0 || p.Damp.At(0, 6, 6) <= 0 {
		t.Fatal("damp field wrong")
	}
}

func TestNewElasticParams(t *testing.T) {
	g := Geometry{Nx: 10, Ny: 10, Nz: 10, Hx: 10, Hy: 10, Hz: 10, NBL: 2}
	p := NewElastic(g, 1, Homogeneous(2000), Homogeneous(1000), Homogeneous(1800))
	// λ = ρ(vp²−2vs²) = 1800·(4e6−2e6) = 3.6e9; μ = ρvs² = 1.8e9.
	if math.Abs(float64(p.Lam.At(5, 5, 5))-3.6e9) > 1e3 {
		t.Fatalf("lambda %g", p.Lam.At(5, 5, 5))
	}
	if math.Abs(float64(p.Mu.At(5, 5, 5))-1.8e9) > 1e3 {
		t.Fatalf("mu %g", p.Mu.At(5, 5, 5))
	}
	if math.Abs(float64(p.Buoy.At(5, 5, 5))-1/1800.0) > 1e-9 {
		t.Fatalf("buoy %g", p.Buoy.At(5, 5, 5))
	}
	// Taper: 1 in interior, < 1 at the faces.
	if p.Taper.At(5, 5, 5) != 1 {
		t.Fatalf("interior taper %g", p.Taper.At(5, 5, 5))
	}
	if p.Taper.At(0, 5, 5) >= 1 || p.Taper.At(0, 5, 5) <= 0 {
		t.Fatalf("face taper %g", p.Taper.At(0, 5, 5))
	}
}

func TestNewTTIParams(t *testing.T) {
	g := Geometry{Nx: 10, Ny: 10, Nz: 10, Hx: 10, Hy: 10, Hz: 10, NBL: 2}
	p := NewTTI(g, 2, Homogeneous(2500), Homogeneous(0.2), Homogeneous(0.1),
		Homogeneous(0.5), Homogeneous(0.3))
	if p.Vmax != 2500 || p.EpsMax != 0.2 {
		t.Fatalf("Vmax %g EpsMax %g", p.Vmax, p.EpsMax)
	}
	if p.Epsilon.At(3, 3, 3) != 0.2 || p.Delta.At(3, 3, 3) != 0.1 {
		t.Fatal("thomsen fields wrong")
	}
	if math.Abs(float64(p.Theta.At(1, 1, 1))-0.5) > 1e-7 {
		t.Fatal("theta wrong")
	}
}

// TestParamsIndependentOfWorkers builds every parameter set at one and at
// several par workers and requires the tracked maxima and every field to be
// bitwise equal: the maxima are reduced from the parallel fill, and the
// damping field is built from them. Run under -race it also pins that the
// reduction has one writer per slot.
func TestParamsIndependentOfWorkers(t *testing.T) {
	g := Geometry{Nx: 24, Ny: 12, Nz: 10, Hx: 10, Hy: 10, Hz: 10, NBL: 3}
	// Velocity and anisotropy vary along x, so each x-plane has its own
	// maximum and the global one sits in a single plane.
	vp := func(x, y, z float64) float64 { return 1500 + 7*x + 3*z - 0.04*x*x }
	eps := func(x, y, z float64) float64 { return 0.1 + 0.001*x - 0.000005*x*x }
	build := func(workers int) (maxima []float64, fields []*grid.Grid) {
		prev := par.Workers
		par.Workers = workers
		defer func() { par.Workers = prev }()
		a := NewAcoustic(g, 2, vp)
		w := NewTTI(g, 2, vp, eps, Homogeneous(0.1), Homogeneous(0.3), Homogeneous(0.2))
		e := NewElastic(g, 2, vp, func(x, y, z float64) float64 { return vp(x, y, z) / 2 }, Homogeneous(1800))
		return []float64{a.Vmax, w.Vmax, w.EpsMax, e.VpMax},
			[]*grid.Grid{a.M, a.Damp, w.M, w.Epsilon, w.Damp, e.Lam, e.Taper}
	}
	wantMax, wantFields := build(1)
	if wantMax[0] <= 1500 || wantMax[2] <= 0.1 {
		t.Fatalf("maxima not tracked: %v", wantMax)
	}
	for _, workers := range []int{2, 4, 7} {
		gotMax, gotFields := build(workers)
		for i := range wantMax {
			if math.Float64bits(gotMax[i]) != math.Float64bits(wantMax[i]) {
				t.Errorf("workers=%d: maximum %d = %v, want %v", workers, i, gotMax[i], wantMax[i])
			}
		}
		for i := range wantFields {
			if !gotFields[i].Equal(wantFields[i]) {
				t.Errorf("workers=%d: field %d differs from the one-worker build", workers, i)
			}
		}
	}
}
