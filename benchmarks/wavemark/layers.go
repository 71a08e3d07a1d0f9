package main

import (
	"fmt"

	"wavetile/internal/grid"
	"wavetile/internal/model"
	"wavetile/internal/sparse"
	"wavetile/internal/tiling"
	"wavetile/internal/wave"
	"wavetile/internal/wavelet"
	"wavetile/wavesim"
)

// assembled is a propagator put together from the layer constructors the
// way wavesim/build.go does it (model.New* → wave.New* → a tiling schedule),
// so that the traced pass can time each layer from outside.
type assembled struct {
	prop  tiling.Propagator
	ops   *wave.SparseOps
	flops int // floating-point operations per grid point and step
	// bytesPerPoint is computed from array counts: every wavefield and
	// factor grid the kernel touches read once, every wavefield it updates
	// written once. It ignores cache misses.
	bytesPerPoint int
	// reset zeroes the wavefields and recordings, as Simulation.Run does
	// before it starts the clock.
	reset func()
	// clone is one CloneShared + ReleaseGrids cycle against a pool.
	clone func(pool *grid.Pool)
}

// geometry is the model layer's discretization of p with a fixed time axis.
func geometry(p problem, dt float64) model.Geometry {
	return model.Geometry{
		Nx: p.N, Ny: p.N, Nz: p.N, Hx: spacing, Hy: spacing, Hz: spacing,
		NBL: p.NBL, Dt: dt, Nt: p.Steps,
	}
}

// cflDt is the CFL-stable timestep of the layered model for p, for probes
// that have no wavesim.Simulation to ask.
func cflDt(p problem) float64 {
	g := geometry(p, 0)
	switch p.Physics {
	case "tti":
		return g.CriticalDtTTI(p.SO, vmax, 0.2, model.DefaultCFL)
	case "elastic":
		return g.CriticalDtElastic(p.SO, vmax, model.DefaultCFL)
	}
	return g.CriticalDtAcoustic(p.SO, vmax, model.DefaultCFL)
}

func points(cs []wavesim.Coord) *sparse.Points {
	pts := &sparse.Points{}
	for _, c := range cs {
		pts.Coords = append(pts.Coords, sparse.Coord(c))
	}
	return pts
}

// assemble builds p's propagator from the model and wave layers, with the
// material defaults of wavesim.New, recording one span per layer call under
// parent. sources and receivers may be empty.
func assemble(rec *recorder, parent spanID, op int, p problem, dt float64, sources, receivers []wavesim.Coord) (*assembled, error) {
	geom := geometry(p, dt)
	halo := p.SO / 2
	vp := model.Layered(p.zmax(), layers...)
	src, rcv := points(sources), points(receivers)
	wavs := make([][]float32, src.N())
	for i := range wavs {
		wavs[i] = wavelet.RickerSeries(sourceF0, geom.Nt, geom.Dt, sourceAmp)
	}

	switch p.Physics {
	case "acoustic":
		s := rec.begin(parent, "model", "model.NewAcoustic", op)
		params := model.NewAcoustic(geom, halo, vp)
		rec.end(s)
		s = rec.begin(parent, "wave", "wave.NewAcoustic", op)
		a, err := wave.NewAcoustic(wave.AcousticOpts{Params: params, SO: p.SO, Src: src, SrcWav: wavs, Rec: rcv, SincSource: p.Sinc})
		rec.end(s)
		if err != nil {
			return nil, err
		}
		return &assembled{prop: a, ops: a.Ops, flops: a.FlopsPerPoint(),
			bytesPerPoint: 4 * (5 + 1), // u, u⁻, three factor grids; u⁺ written
			reset:         a.Reset, clone: func(pool *grid.Pool) { a.CloneShared(pool).ReleaseGrids(pool) }}, nil
	case "tti":
		s := rec.begin(parent, "model", "model.NewTTI", op)
		params := model.NewTTI(geom, halo, vp, model.Homogeneous(0.2), model.Homogeneous(0.1),
			model.Homogeneous(0.35), model.Homogeneous(0.25))
		rec.end(s)
		s = rec.begin(parent, "wave", "wave.NewTTI", op)
		w, err := wave.NewTTI(wave.TTIOpts{Params: params, SO: p.SO, Src: src, SrcWav: wavs, Rec: rcv, SincSource: p.Sinc})
		rec.end(s)
		if err != nil {
			return nil, err
		}
		return &assembled{prop: w, ops: w.Ops, flops: w.FlopsPerPoint(),
			bytesPerPoint: 4 * (12 + 2), // p, q ping-pong pairs, eight factor grids; p⁺, q⁺ written
			reset:         w.Reset, clone: func(pool *grid.Pool) { w.CloneShared(pool).ReleaseGrids(pool) }}, nil
	case "elastic":
		s := rec.begin(parent, "model", "model.NewElastic", op)
		params := model.NewElastic(geom, halo, vp,
			func(x, y, z float64) float64 { return vp(x, y, z) / 2 }, model.Homogeneous(1800))
		rec.end(s)
		s = rec.begin(parent, "wave", "wave.NewElastic", op)
		e, err := wave.NewElastic(wave.ElasticOpts{Params: params, SO: p.SO, Src: src, SrcWav: wavs, Rec: rcv, SincSource: p.Sinc})
		rec.end(s)
		if err != nil {
			return nil, err
		}
		return &assembled{prop: e, ops: e.Ops, flops: e.FlopsPerPoint(),
			bytesPerPoint: 4 * (14 + 9), // nine wavefields, five factor grids; all nine written
			reset:         e.Reset, clone: func(pool *grid.Pool) { e.CloneShared(pool).ReleaseGrids(pool) }}, nil
	}
	return nil, fmt.Errorf("unknown physics %q", p.Physics)
}

// tracedProp decorates a propagator so that the schedule driving it leaves
// one span per Step and ApplySparse call. The spans cover everything the
// wave layer does inside the call: the stencil kernel, the fused core
// injection and sampling, and the par fork/join over blocks.
type tracedProp struct {
	tiling.Propagator
	rec    *recorder
	parent spanID
	op     int
}

func (t *tracedProp) Step(ts int, raw grid.Region, fused bool) {
	s := t.rec.begin(t.parent, "wave", "Step", t.op)
	t.Propagator.Step(ts, raw, fused)
	t.rec.end(s)
}

func (t *tracedProp) ApplySparse(ts int) {
	s := t.rec.begin(t.parent, "wave", "ApplySparse", t.op)
	t.Propagator.ApplySparse(ts)
	t.rec.end(s)
}
