// Package wave implements the three finite-difference wave propagators the
// paper evaluates (§III): isotropic acoustic, anisotropic acoustic (TTI) and
// isotropic elastic, each for configurable even space orders (the paper uses
// 4, 8, 12). Every propagator satisfies tiling.Propagator, so it can run
// under either the spatially-blocked baseline or wave-front temporal
// blocking, with the sparse off-the-grid operators executed either unfused
// (Listing 1) or fused through the precomputation scheme of internal/core
// (Listings 4–5).
//
// Both schedules call the exact same per-point kernel code; temporal
// blocking only reorders which points are computed when, so spatial and WTB
// runs with fused sparse operators produce bitwise identical wavefields and
// receiver data — the invariant exploited by the test-suite.
package wave

import (
	"fmt"
	"math"

	"wavetile/internal/core"
	"wavetile/internal/grid"
	"wavetile/internal/sparse"
)

// SparseOps bundles one propagator's off-the-grid machinery: the original
// off-grid description (for the Listing-1 baseline path) and the precomputed
// grid-aligned structures (for the fused path).
type SparseOps struct {
	Nt int

	// Grid dimensions the supports/masks were built for, kept so per-shot
	// source bundles (PrecomputeSources) are constructed over exactly the
	// geometry of the owning propagator.
	nx, ny, nz int
	hx, hy, hz float64

	// Source side.
	SrcSup  []sparse.Support
	SrcWav  [][]float32 // [s][nt] wavelet per source
	SrcMask *core.Masks
	SrcD    [][]float32 // src_dcmp: [t][id]
	// SrcSupByStep, when non-nil, holds per-timestep supports for moving
	// sources; the baseline injection then scatters through the support of
	// the current timestep. The fused path is untouched: src_dcmp already
	// carries the motion.
	SrcSupByStep [][]sparse.Support

	// Receiver side.
	RecSup    []sparse.Support
	RecMask   *core.Masks
	Sampler   *core.Sampler
	recDirect [][]float32 // baseline receiver traces [t][r]

	scale     sparse.ScaleFunc
	fused     bool // sparse-operator path of the current run, set by the propagator's SetFused
	recGroups int  // support groups per receiver (1 trilinear, 64 sinc)
	ampBuf    []float32
}

// NewSparseOps precomputes masks, decomposed wavefields and sampler storage
// for a set of sources (with per-source wavelets) and receivers on an
// nx×ny×nz grid with the given spacing. scale is the per-grid-point
// injection scale (e.g. dt²/m). sinc selects Kaiser-windowed sinc source
// injection (Hicks 2002) instead of trilinear — the scheme is oblivious to
// the interpolation order, exactly as the paper claims.
func NewSparseOps(nx, ny, nz int, hx, hy, hz float64, nt int,
	src *sparse.Points, srcWav [][]float32, rec *sparse.Points, scale sparse.ScaleFunc,
	sinc bool) (*SparseOps, error) {
	return newSparseOps(nx, ny, nz, hx, hy, hz, nt, src, srcWav, rec, scale, sinc, false)
}

// newSparseOps additionally supports windowed-sinc receivers (recSinc):
// the receiver-side masks and sampler are then built over the 8³-point
// sinc supports, and GatherReceivers sums each receiver's groups.
func newSparseOps(nx, ny, nz int, hx, hy, hz float64, nt int,
	src *sparse.Points, srcWav [][]float32, rec *sparse.Points, scale sparse.ScaleFunc,
	sinc, recSinc bool) (*SparseOps, error) {

	s := &SparseOps{Nt: nt, nx: nx, ny: ny, nz: nz, hx: hx, hy: hy, hz: hz, scale: scale}
	bundle, err := buildSourceBundle(nx, ny, nz, hx, hy, hz, nt, src, srcWav, scale, sinc)
	if err != nil {
		return nil, err
	}
	s.InstallSources(bundle)
	if rec != nil && rec.N() > 0 {
		var sup []sparse.Support
		var err error
		if recSinc {
			sup, s.recGroups, err = rec.SincSupports(nx, ny, nz, hx, hy, hz)
			if err != nil {
				return nil, fmt.Errorf("wave: sinc receiver supports: %w", err)
			}
		} else {
			s.recGroups = 1
			sup, err = rec.Supports(nx, ny, nz, hx, hy, hz)
			if err != nil {
				return nil, fmt.Errorf("wave: receiver supports: %w", err)
			}
		}
		s.RecSup = sup
		s.RecMask = core.BuildMasks(nx, ny, nz, sup)
		s.Sampler = core.NewSampler(s.RecMask, nt)
		s.recDirect = make([][]float32, nt)
		for t := range s.recDirect {
			s.recDirect[t] = make([]float32, len(sup))
		}
	}
	return s, nil
}

// SourceBundle is one shot's precomputed source-side state: off-the-grid
// supports, wavelets, the grid-aligned injection masks (SM/SID of the
// paper) and the decomposed per-timestep injection wavefield src_dcmp.
// Bundles are immutable after construction and independent of any
// propagator's wavefields, so a survey driver can precompute all shots up
// front (in parallel) and install each onto a propagator clone just before
// its run.
type SourceBundle struct {
	Sup  []sparse.Support
	Wav  [][]float32
	Mask *core.Masks
	D    [][]float32 // src_dcmp: [t][id]
}

// buildSourceBundle is the single construction path for source-side state.
// Both NewSparseOps and PrecomputeSources go through it, which is what
// makes a precomputed-then-installed bundle bitwise identical to the one a
// fresh propagator would build for the same sources: the support order, the
// deterministic x→y→z mask ID assignment of BuildMasks and the
// accumulation order of DecomposeWavelets are all shared code.
func buildSourceBundle(nx, ny, nz int, hx, hy, hz float64, nt int,
	src *sparse.Points, srcWav [][]float32, scale sparse.ScaleFunc, sinc bool) (*SourceBundle, error) {
	b := &SourceBundle{}
	if src == nil || src.N() == 0 {
		b.Mask = core.BuildMasks(nx, ny, nz, nil)
		b.D = make([][]float32, nt)
		return b, nil
	}
	if len(srcWav) != src.N() {
		return nil, fmt.Errorf("wave: %d sources but %d wavelets", src.N(), len(srcWav))
	}
	var sup []sparse.Support
	var err error
	if sinc {
		var per int
		sup, per, err = src.SincSupports(nx, ny, nz, hx, hy, hz)
		if err != nil {
			return nil, fmt.Errorf("wave: sinc source supports: %w", err)
		}
		// Each source expands into `per` weight groups sharing its
		// wavelet; replicate so the pipeline stays interpolation-blind.
		wide := make([][]float32, 0, len(sup))
		for i := range srcWav {
			for j := 0; j < per; j++ {
				wide = append(wide, srcWav[i])
			}
		}
		srcWav = wide
	} else {
		sup, err = src.Supports(nx, ny, nz, hx, hy, hz)
		if err != nil {
			return nil, fmt.Errorf("wave: source supports: %w", err)
		}
	}
	b.Sup = sup
	b.Wav = srcWav
	b.Mask = core.BuildMasks(nx, ny, nz, sup)
	b.D, err = b.Mask.DecomposeWavelets(sup, srcWav, nt, scale)
	if err != nil {
		return nil, err
	}
	return b, nil
}

// PrecomputeSources builds a shot's source bundle over this bundle's grid
// geometry and injection scale without touching any live run state, so it
// is safe to call concurrently (the scale closure only reads immutable
// factor grids) and ahead of time — the amortized per-shot setup of a
// multi-shot survey.
func (s *SparseOps) PrecomputeSources(src *sparse.Points, srcWav [][]float32, sinc bool) (*SourceBundle, error) {
	return buildSourceBundle(s.nx, s.ny, s.nz, s.hx, s.hy, s.hz, s.Nt, src, srcWav, s.scale, sinc)
}

// InstallSources swaps the source side of s to the precomputed bundle.
// Receiver-side state is untouched; per-timestep moving-source supports are
// cleared (bundles describe static shots). The caller must Reset the owning
// propagator before the next run, as after any source change.
func (s *SparseOps) InstallSources(b *SourceBundle) {
	s.SrcSup = b.Sup
	s.SrcWav = b.Wav
	s.SrcMask = b.Mask
	s.SrcD = b.D
	s.SrcSupByStep = nil
}

// cloneShared returns a SparseOps sharing every shot-invariant structure
// with s — receiver supports, masks and grouping, the injection scale, the
// grid geometry — while giving the clone its own recording state (sampler
// data, baseline traces, amplitude scratch) and an empty source side. The
// clone is what a survey lane runs shots through: InstallSources switches
// shots, and concurrent lanes never share mutable state.
func (s *SparseOps) cloneShared() *SparseOps {
	c := &SparseOps{
		Nt: s.Nt,
		nx: s.nx, ny: s.ny, nz: s.nz,
		hx: s.hx, hy: s.hy, hz: s.hz,
		scale:     s.scale,
		recGroups: s.recGroups,
		RecSup:    s.RecSup,
		RecMask:   s.RecMask,
	}
	// Empty source side until InstallSources.
	c.SrcMask = core.BuildMasks(s.nx, s.ny, s.nz, nil)
	c.SrcD = make([][]float32, s.Nt)
	if s.RecMask != nil && s.Sampler != nil {
		c.Sampler = core.NewSampler(s.RecMask, s.Nt)
		c.recDirect = make([][]float32, s.Nt)
		for t := range c.recDirect {
			c.recDirect[t] = make([]float32, len(s.RecSup))
		}
	}
	return c
}

// SetMovingSources switches the sparse-operator bundle to per-timestep
// source positions: coordsAt(t) gives every source's position at timestep
// t. Masks and the decomposed wavefield are rebuilt over the union of all
// positions; schedules and fused loops are oblivious to the change.
func (s *SparseOps) SetMovingSources(nx, ny, nz int, hx, hy, hz float64,
	coordsAt func(t int) *sparse.Points, srcWav [][]float32) error {
	supsByStep := make([][]sparse.Support, s.Nt)
	for t := 0; t < s.Nt; t++ {
		pts := coordsAt(t)
		if pts.N() != len(srcWav) {
			return fmt.Errorf("wave: step %d has %d sources but %d wavelets", t, pts.N(), len(srcWav))
		}
		sup, err := pts.Supports(nx, ny, nz, hx, hy, hz)
		if err != nil {
			return fmt.Errorf("wave: moving source supports at t=%d: %w", t, err)
		}
		supsByStep[t] = sup
	}
	s.SrcSupByStep = supsByStep
	s.SrcWav = srcWav
	s.SrcMask = core.BuildMovingMasks(nx, ny, nz, supsByStep)
	dcmp, err := s.SrcMask.DecomposeMovingWavelets(supsByStep, srcWav, s.Nt, s.scale)
	if err != nil {
		return err
	}
	s.SrcD = dcmp
	return nil
}

// InjectFused applies the fused, compressed injection for the step that
// computes time index t+1, restricted to reg.
func (s *SparseOps) InjectFused(u *grid.Grid, t int, reg grid.Region) {
	if s.SrcMask.Npts == 0 {
		return
	}
	s.SrcMask.InjectRegion(u, reg, s.SrcD[t])
}

// SampleFused records receiver-affected points of u (holding time index
// t+1 values) inside reg.
func (s *SparseOps) SampleFused(u *grid.Grid, t int, reg grid.Region) {
	if s.Sampler == nil {
		return
	}
	s.Sampler.SampleRegion(t, u, reg)
}

// wavAt gathers each source's amplitude at time index t for the baseline
// injection path.
func (s *SparseOps) wavAt(t int) []float32 {
	if cap(s.ampBuf) < len(s.SrcWav) {
		s.ampBuf = make([]float32, len(s.SrcWav))
	}
	amps := s.ampBuf[:len(s.SrcWav)]
	for i := range s.SrcWav {
		amps[i] = s.SrcWav[i][t]
	}
	return amps
}

// InjectBaseline performs the paper's Listing-1 off-the-grid injection into
// u (holding time index t+1 values).
func (s *SparseOps) InjectBaseline(u *grid.Grid, t int) {
	if s.SrcSupByStep != nil {
		sparse.Inject(u, s.SrcSupByStep[t], s.wavAt(t), s.scale)
		return
	}
	if len(s.SrcSup) == 0 {
		return
	}
	sparse.Inject(u, s.SrcSup, s.wavAt(t), s.scale)
}

// InterpolateBaseline performs the Listing-1 receiver interpolation from u.
func (s *SparseOps) InterpolateBaseline(u *grid.Grid, t int) {
	if len(s.RecSup) == 0 {
		return
	}
	sparse.Interpolate(u, s.RecSup, s.recDirect[t])
}

// Receivers returns the receiver traces of the last run, [t][r]; trace index
// t holds the measurement of wavefield time index t+1. Returns nil when no
// receivers are attached.
func (s *SparseOps) Receivers() ([][]float32, error) {
	if s.RecSup == nil {
		return nil, nil
	}
	var per [][]float32
	if s.fused {
		g, err := s.Sampler.GatherReceivers(s.RecSup)
		if err != nil {
			return nil, err
		}
		per = g
	} else {
		// Copy: recDirect is live run state and would otherwise be zeroed
		// under the caller's feet by the next Reset.
		per = make([][]float32, len(s.recDirect))
		for t := range per {
			per[t] = append([]float32(nil), s.recDirect[t]...)
		}
	}
	if s.recGroups <= 1 {
		return per, nil
	}
	// Sum sinc support groups back into one trace per receiver.
	nr := len(s.RecSup) / s.recGroups
	out := make([][]float32, len(per))
	for t := range per {
		out[t] = make([]float32, nr)
		for r := 0; r < nr; r++ {
			acc := float32(0)
			for g := 0; g < s.recGroups; g++ {
				acc += per[t][r*s.recGroups+g]
			}
			out[t][r] = acc
		}
	}
	return out, nil
}

// Reset clears per-run sampler/receiver state (wavefields are reset by the
// propagators).
func (s *SparseOps) Reset() {
	if s.Sampler != nil {
		for _, row := range s.Sampler.Data {
			for i := range row {
				row[i] = 0
			}
		}
	}
	for _, row := range s.recDirect {
		for i := range row {
			row[i] = 0
		}
	}
}

// flushEps is the flush-to-zero threshold applied to every wavefield
// update. Stencil leading edges generate subnormal float32 tails whose
// arithmetic is 10–100× slower on x86 (Go cannot enable hardware FTZ/DAZ,
// which the paper's C toolchain gets from the compiler); flushing values
// thirty orders of magnitude below signal level restores the intended cost
// model without measurable physical effect. The flush is part of the
// per-point update and identical under every schedule, so the bitwise
// schedule-equivalence property is preserved.
const flushEps = 1e-30

// flushBits is math.Float32bits(flushEps); ftz_test.go asserts the two stay
// in sync. Keeping it a constant lets ftz compile to four branch-free
// integer ops.
const flushBits = 0x0DA24260

// ftz flushes values below flushEps in magnitude to +0, branchlessly.
//
// The magnitude bits of v (sign masked off) order like the floats they
// encode, so |v| < flushEps ⟺ magBits < flushBits; the subtraction's sign
// bit, smeared into a full-width mask, then selects between the original
// bits and zero. NaN and ±Inf have magnitude bits above every finite
// threshold and pass through untouched; −0 flushes to +0, exactly like the
// branchy comparison form it replaces (ftz_test.go proves bit-identity over
// denormal/normal/negative/NaN inputs). Keeping the per-point flush free of
// compare-and-branch matters in the kernels' z-stream loops, where the
// branch sits between every FMA group.
func ftz(v float32) float32 {
	b := math.Float32bits(v)
	flush := uint32(int32(b&0x7FFFFFFF-flushBits) >> 31) // all-ones iff |v| < flushEps
	return math.Float32frombits(b &^ flush)
}
