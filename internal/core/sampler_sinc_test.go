package core

import (
	"math"
	"testing"

	"wavetile/internal/grid"
	"wavetile/internal/sparse"
)

// Sampler coverage for the two hard off-the-grid regimes: Kaiser-windowed
// sinc receiver supports (64 weight groups per receiver instead of 1) and
// masks built over a moving source's union footprint (points that are only
// live at some timesteps).

// TestSamplerSincReceivers checks the fused sampling path under windowed-
// sinc measurement interpolation: recording the 8³-point supports and
// summing their gathered groups must match the direct wide interpolation.
func TestSamplerSincReceivers(t *testing.T) {
	n, h, nt := 18, 10.0, 4
	rec := &sparse.Points{Coords: []sparse.Coord{
		{71.3, 80.2, 93.7}, {60, 60, 60}, {88.8, 77.1, 65.4},
	}}
	sup, groups, err := rec.SincSupports(n, n, n, h, h, h)
	if err != nil {
		t.Fatal(err)
	}
	if groups != 64 {
		t.Fatalf("sinc supports pack %d groups per receiver, want 64 (8³/8)", groups)
	}
	m := BuildMasks(n, n, n, sup)
	s := NewSampler(m, nt)

	u := grid.New(n, n, n, 0)
	for tt := 0; tt < nt; tt++ {
		u.FillFunc(func(x, y, z int) float32 {
			// FillFunc calls this from several goroutines: the rough
			// amplitude is a pure function of the point, not a shared rng.
			return float32(math.Sin(float64(x*13+y*7+z*3)+float64(tt))) * (1 + float32((x*5+y*11+z*17)%23)/23)
		})
		s.SampleRegion(tt, u, grid.FullRegion(n, n))

		got, err := s.GatherReceivers(sup)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rec.N(); r++ {
			// Sum the receiver's groups as wave.SparseOps.Receivers does.
			var fused float32
			for g := 0; g < groups; g++ {
				fused += got[tt][r*groups+g]
			}
			// Direct: the full 512-point weighted sum from the wide support.
			ws, err := sparse.SincSupport(rec.Coords[r], n, n, n, h, h, h)
			if err != nil {
				t.Fatal(err)
			}
			direct := 0.0
			for i := range ws.W {
				direct += ws.W[i] * float64(u.At(int(ws.X[i]), int(ws.Y[i]), int(ws.Z[i])))
			}
			if d := math.Abs(float64(fused) - direct); d > 1e-4*math.Max(1, math.Abs(direct)) {
				t.Fatalf("t=%d rec %d: fused sinc sample %g, direct %g (diff %g)", tt, r, fused, direct, d)
			}
		}
	}
}

// TestSamplerOnMovingUnionMasks attaches the sampler to masks built over a
// moving source's union footprint. Every affected point must record the
// wavefield value of the timestep being sampled — including points whose
// source only visits them at other timesteps — so fused WTB tiles can
// sample mid-tile without knowing which points are "currently" live.
func TestSamplerOnMovingUnionMasks(t *testing.T) {
	n, h, nt := 14, 10.0, 6
	// A tow path crossing several cells: position at step tt.
	coordAt := func(tt int) sparse.Coord {
		f := float64(tt) / float64(nt)
		return sparse.Coord{25 + 70*f, 33 + 40*f, 41 + 55*f}
	}
	supsByStep := make([][]sparse.Support, nt)
	for tt := 0; tt < nt; tt++ {
		pts := sparse.Single(coordAt(tt))
		sup, err := pts.Supports(n, n, n, h, h, h)
		if err != nil {
			t.Fatal(err)
		}
		supsByStep[tt] = sup
	}
	m := BuildMovingMasks(n, n, n, supsByStep)
	// The union must cover every step's corners and hold more points than
	// any single step's 8-point support.
	if m.Npts <= 8 {
		t.Fatalf("union masks hold %d points; the path should touch more than one support", m.Npts)
	}
	for tt := 0; tt < nt; tt++ {
		for i := range supsByStep[tt] {
			sp := &supsByStep[tt][i]
			for c := 0; c < 8; c++ {
				if _, ok := m.ID(int(sp.X[c]), int(sp.Y[c]), int(sp.Z[c])); !ok {
					t.Fatalf("step %d corner (%d,%d,%d) missing from union masks", tt, sp.X[c], sp.Y[c], sp.Z[c])
				}
			}
		}
	}

	s := NewSampler(m, nt)
	u := grid.New(n, n, n, 0)
	for tt := 0; tt < nt; tt++ {
		u.FillFunc(func(x, y, z int) float32 { return float32((x*100 + y*10 + z) * (tt + 1)) })
		s.SampleRegion(tt, u, grid.FullRegion(n, n))
		// Every union point records this step's value, live or not.
		for id := 0; id < m.Npts; id++ {
			x, y, z := int(m.PointX[id]), int(m.PointY[id]), int(m.PointZ[id])
			if want := float32((x*100 + y*10 + z) * (tt + 1)); s.Data[tt][id] != want {
				t.Fatalf("t=%d id=%d at (%d,%d,%d): recorded %g, want %g", tt, id, x, y, z, s.Data[tt][id], want)
			}
		}
	}

	// The per-step interpolation through the union sampler matches direct
	// interpolation with that step's own support — the property the moving
	// receiver-side path would rely on.
	for tt := 0; tt < nt; tt++ {
		u.FillFunc(func(x, y, z int) float32 { return float32((x*100 + y*10 + z) * (tt + 1)) })
		traces, err := s.GatherReceivers(supsByStep[tt])
		if err != nil {
			t.Fatal(err)
		}
		direct := make([]float32, 1)
		sparse.Interpolate(u, supsByStep[tt], direct)
		if traces[tt][0] != direct[0] {
			t.Fatalf("t=%d: union-mask gather %g, direct %g", tt, traces[tt][0], direct[0])
		}
	}
}
