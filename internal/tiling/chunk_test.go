package tiling_test

import (
	"fmt"
	"testing"

	"wavetile/internal/grid"
	"wavetile/internal/model"
	"wavetile/internal/par"
	"wavetile/internal/sparse"
	"wavetile/internal/tiling"
	"wavetile/internal/wave"
	"wavetile/internal/wavelet"
)

// realProp is what the chunking test needs of a wave propagator beyond the
// schedule surface.
type realProp interface {
	tiling.Propagator
	Fields() map[string]*grid.Grid
	Reset()
}

// chunkProps builds one propagator per buffering scheme — acoustic
// (ping-pong, the graph's k−1 edge set) and elastic (in place, the same-step
// edge set) — with an off-the-grid source and a receiver line, over nt
// timesteps.
func chunkProps(t *testing.T, nt int) map[string]func() (realProp, *wave.SparseOps) {
	t.Helper()
	const n, so = 28, 4
	geom := func(dt float64) model.Geometry {
		return model.Geometry{Nx: n, Ny: n - 4, Nz: n - 8, Hx: 10, Hy: 10, Hz: 10, NBL: 3, Dt: dt, Nt: nt}
	}
	vp := model.Layered(float64(n)*10, 1500, 2500, 3000)
	points := func(g model.Geometry) (src, rec *sparse.Points, wav [][]float32) {
		lo, hi := g.PhysicalBox()
		src = sparse.Single(sparse.Coord{(lo[0] + hi[0]) / 2.1, (lo[1] + hi[1]) / 1.9, lo[2] + 21})
		rec = sparse.Line(5, sparse.Coord{lo[0] + 3, lo[1] + 5, lo[2] + 11}, sparse.Coord{hi[0] - 3, hi[1] - 5, lo[2] + 11})
		return src, rec, [][]float32{wavelet.RickerSeries(2/(float64(nt)*g.Dt), nt, g.Dt, 1e4)}
	}
	return map[string]func() (realProp, *wave.SparseOps){
		"acoustic": func() (realProp, *wave.SparseOps) {
			g := geom(geom(0).CriticalDtAcoustic(so, 3000, model.DefaultCFL))
			src, rec, wav := points(g)
			a, err := wave.NewAcoustic(wave.AcousticOpts{Params: model.NewAcoustic(g, so/2, vp), SO: so, Src: src, SrcWav: wav, Rec: rec})
			if err != nil {
				t.Fatal(err)
			}
			return a, a.Ops
		},
		"elastic": func() (realProp, *wave.SparseOps) {
			g := geom(geom(0).CriticalDtElastic(so, 3000, model.DefaultCFL))
			src, rec, wav := points(g)
			vs := func(x, y, z float64) float64 { return vp(x, y, z) / 2 }
			e, err := wave.NewElastic(wave.ElasticOpts{Params: model.NewElastic(g, so/2, vp, vs, model.Homogeneous(1800)), SO: so, Src: src, SrcWav: wav, Rec: rec})
			if err != nil {
				t.Fatal(err)
			}
			return e, e.Ops
		},
	}
}

// TestRunChunkedEqualsUnchunked is the executor's range contract: every
// schedule kind, run in chunks whose boundaries are multiples of its
// time-tile depth, leaves wavefields and receiver records bitwise equal to
// one uninterrupted run — chunk by chunk, the same tile sequence. The
// pipelined kind runs with several workers, so under -race this also pins
// that concurrent graph tasks share no written state in the propagator
// (SetFused fixes the sparse mode once, before the first task).
func TestRunChunkedEqualsUnchunked(t *testing.T) {
	prev := par.Workers
	par.Workers = 4
	defer func() { par.Workers = prev }()

	const nt = 11 // not a multiple of the tile depth: the last time tile is short
	cfg := tiling.Config{TT: 3, TileX: 12, TileY: 8, BlockX: 5, BlockY: 4, Workers: 3}
	kinds := []struct {
		name  string
		kind  tiling.Kind
		depth int
	}{
		{"spatial", tiling.Spatial, 1},
		{"spatial-unfused", tiling.SpatialUnfused, 1},
		{"wtb", tiling.WTB, cfg.TT},
		{"wtb-pipelined", tiling.WTBPipelined, cfg.TT},
	}
	for physics, build := range chunkProps(t, nt) {
		p, ops := build()
		for _, k := range kinds {
			run := func(chunks []int) (map[string]*grid.Grid, [][]float32) {
				p.Reset()
				t0 := 0
				for _, tiles := range append(chunks, nt) { // the last chunk runs to the end
					t1 := min(t0+tiles*k.depth, nt)
					if err := tiling.Run(p, k.kind, cfg, t0, t1, nil); err != nil {
						t.Fatal(err)
					}
					t0 = t1
				}
				fields := map[string]*grid.Grid{}
				for name, f := range p.Fields() {
					fields[name] = f.Clone()
				}
				rec, err := ops.Receivers()
				if err != nil {
					t.Fatal(err)
				}
				return fields, rec
			}
			wantFields, wantRec := run(nil)
			if wantRec[nt-1][2] == 0 {
				t.Fatalf("%s/%s: vacuous run, nothing reached the receivers", physics, k.name)
			}
			for _, chunks := range [][]int{{1}, {2, 1}, {1, 1, 1, 1}} {
				ctx := fmt.Sprintf("%s/%s chunks %v", physics, k.name, chunks)
				gotFields, gotRec := run(chunks)
				for name, w := range wantFields {
					if !w.Equal(gotFields[name]) {
						t.Errorf("%s: field %s differs from the unchunked run", ctx, name)
					}
				}
				for ti := range wantRec {
					for r := range wantRec[ti] {
						if wantRec[ti][r] != gotRec[ti][r] {
							t.Fatalf("%s: receiver %d at t=%d: %g, unchunked %g", ctx, r, ti, gotRec[ti][r], wantRec[ti][r])
						}
					}
				}
			}
		}
	}
}
