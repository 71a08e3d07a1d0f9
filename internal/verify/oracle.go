package verify

import (
	"fmt"
	"strings"

	"wavetile/internal/dist"
	"wavetile/internal/grid"
	"wavetile/internal/par"
	"wavetile/internal/tiling"
)

// Tolerances of the equivalence contract. The fused schedules (spatial,
// WTB, dist) perform identical per-point arithmetic and must agree to the
// bit; only the Listing-1 baseline — which injects and samples with a
// different operation order — is compared within a relative tolerance
// (matching the hand-written equivalence tests).
const (
	relTolFields = 5e-5
	relTolTraces = 5e-5
)

// Divergence pinpoints the first disagreement between a schedule and the
// reference, in scan order.
type Divergence struct {
	Schedule string // which schedule diverged
	Field    string // wavefield name, or "receivers"
	// TimeTile is the first time tile [T0, T1) whose end-state differs
	// (WTB checkpoint replay); T0 = −1 when only the final state was
	// compared.
	T0, T1 int
	// First differing grid point in scan order (x, y, z), or trace (t, r, 0).
	X, Y, Z   int
	Want, Got float32
	ULP       int64 // distance in units of last place (MaxInt64 for NaN)
}

func (d Divergence) String() string {
	where := fmt.Sprintf("point (%d,%d,%d)", d.X, d.Y, d.Z)
	if d.Field == "receivers" {
		where = fmt.Sprintf("trace sample t=%d rec=%d", d.X, d.Y)
	}
	tile := ""
	if d.T0 >= 0 {
		tile = fmt.Sprintf(" first divergent time tile [%d,%d)", d.T0, d.T1)
	}
	return fmt.Sprintf("%s: field %q%s %s: want %v got %v (%d ULP)",
		d.Schedule, d.Field, tile, where, d.Want, d.Got, d.ULP)
}

// Report is the oracle verdict for one scenario.
type Report struct {
	Scenario    Scenario
	Schedules   []string // schedules actually run
	Divergences []Divergence
}

// OK reports whether every schedule agreed with the reference.
func (r *Report) OK() bool { return len(r.Divergences) == 0 }

func (r *Report) String() string {
	if r.OK() {
		return fmt.Sprintf("%s: ok (%s)", r.Scenario, strings.Join(r.Schedules, ", "))
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s: %d divergence(s)", r.Scenario, len(r.Divergences))
	for _, d := range r.Divergences {
		b.WriteString("\n  ")
		b.WriteString(d.String())
	}
	return b.String()
}

// setWorkers pins the par pool width for a scenario, returning a restore
// function. par.Workers is read at the start of every parallel region, so
// swapping it between runs is race-free.
func setWorkers(n int) func() {
	prev := par.Workers
	par.Workers = n
	return func() { par.Workers = prev }
}

// RunOracle executes one scenario through every applicable schedule and
// checks the equivalence contract. An error means the scenario could not be
// run at all (a harness bug); disagreements are reported in the Report.
func RunOracle(s Scenario) (*Report, error) {
	restore := setWorkers(s.Workers)
	defer restore()

	rep := &Report{Scenario: s, Schedules: s.Schedules()}

	// Reference: the fused spatial schedule (the paper's precomputed scheme
	// in its simplest legal ordering).
	b, err := s.build()
	if err != nil {
		return nil, err
	}
	tiling.RunSpatial(b.Prop, s.WTB.BlockX, s.WTB.BlockY, true)
	refFields := snapshotFields(b.Prop)
	refRec, err := b.Ops.Receivers()
	if err != nil {
		return nil, fmt.Errorf("reference receivers: %w", err)
	}
	if name, ok := fieldsHaveNaN(refFields); ok {
		return nil, fmt.Errorf("%s: reference run produced NaN in field %q (unstable scenario)", s, name)
	}
	if s.NSrc > 0 && !fieldsNonZero(refFields) {
		return nil, fmt.Errorf("%s: reference run is vacuous — sources injected but all fields are zero", s)
	}

	// Listing-1 baseline: unfused sparse operators, FP-tolerance contract.
	b.Prop.Reset()
	tiling.RunSpatial(b.Prop, s.WTB.BlockX, s.WTB.BlockY, false)
	rep.addFieldsClose("spatial-unfused", refFields, b.Prop.Fields())
	baseRec, err := b.Ops.Receivers()
	if err != nil {
		return nil, fmt.Errorf("unfused receivers: %w", err)
	}
	rep.addTracesClose("spatial-unfused", refRec, baseRec)

	// WTB: bitwise contract; on divergence, replay time tile by time tile
	// against spatial checkpoints for a first-divergence report.
	b.Prop.Reset()
	if err := tiling.RunWTB(b.Prop, s.WTB); err != nil {
		return nil, fmt.Errorf("wtb: %w", err)
	}
	wtbDiverged := false
	if d, ok := firstFieldDivergence("wtb", refFields, b.Prop.Fields()); ok {
		wtbDiverged = true
		if dd, derr := diagnoseTiled(b, s, tiling.WTB, "wtb"); derr == nil && dd != nil {
			d = *dd
		}
		rep.Divergences = append(rep.Divergences, d)
	}
	wtbRec, err := b.Ops.Receivers()
	if err != nil {
		return nil, fmt.Errorf("wtb receivers: %w", err)
	}
	// Receiver traces follow the fields bitwise; skip the redundant report
	// when the fields already diverged.
	if !wtbDiverged {
		rep.addTracesBitwise("wtb", refRec, wtbRec)
	}

	// Pipelined WTB: the several-worker drain must reproduce the reference
	// bitwise under the same contract as the serial one — any divergence here
	// means a missing or wrong dependency edge let a tile read a neighbour
	// too early (see TestOracleCatchesDroppedEdges for the deliberate case).
	b.Prop.Reset()
	if err := tiling.RunWTBPipelined(b.Prop, s.WTB); err != nil {
		return nil, fmt.Errorf("wtb-pipelined: %w", err)
	}
	pipeDiverged := false
	if d, ok := firstFieldDivergence("wtb-pipelined", refFields, b.Prop.Fields()); ok {
		pipeDiverged = true
		if dd, derr := diagnoseTiled(b, s, tiling.WTBPipelined, "wtb-pipelined"); derr == nil && dd != nil {
			d = *dd
		}
		rep.Divergences = append(rep.Divergences, d)
	}
	pipeRec, err := b.Ops.Receivers()
	if err != nil {
		return nil, fmt.Errorf("wtb-pipelined receivers: %w", err)
	}
	if !pipeDiverged {
		rep.addTracesBitwise("wtb-pipelined", refRec, pipeRec)
	}

	// dist: slab decomposition, bitwise against the reference final field.
	if s.Dist != nil {
		if b.acoustic == nil {
			return nil, fmt.Errorf("%s: dist scenario is not acoustic", s)
		}
		cluster, err := dist.NewAcousticCluster(*s.Dist, b.Geom, s.SO, b.vp, b.src, b.wav)
		if err != nil {
			return nil, fmt.Errorf("dist cluster: %w", err)
		}
		if err := cluster.Run(); err != nil {
			return nil, fmt.Errorf("dist run: %w", err)
		}
		got := cluster.GatherWavefield()
		// Compare against the clean reference snapshot (b.Prop's live buffers
		// were just mutated by the WTB run), interior only: the gathered grid
		// carries no halo.
		refName := fmt.Sprintf("u%d", b.Geom.Nt&1)
		if d, ok := firstGridDivergence("dist", refName, refFields[refName], got); ok {
			rep.Divergences = append(rep.Divergences, d)
		}
	}
	return rep, nil
}

// fieldsHaveNaN scans a field set for non-finite values.
func fieldsHaveNaN(fields map[string]*grid.Grid) (string, bool) {
	for _, name := range sortedFieldNames(fields) {
		if fields[name].HasNaN() {
			return name, true
		}
	}
	return "", false
}

// fieldsNonZero reports whether any field holds a nonzero value.
func fieldsNonZero(fields map[string]*grid.Grid) bool {
	for _, f := range fields {
		if f.MaxAbs() > 0 {
			return true
		}
	}
	return false
}

// firstFieldDivergence compares two field sets bitwise, returning the first
// divergence in (field, scan) order.
func firstFieldDivergence(schedule string, want, got map[string]*grid.Grid) (Divergence, bool) {
	for _, name := range sortedFieldNames(want) {
		if d, ok := firstGridDivergence(schedule, name, want[name], got[name]); ok {
			return d, true
		}
	}
	return Divergence{}, false
}

// firstGridDivergence returns the first interior point, in scan order, where
// the two grids' bits differ. The grids may have different halo widths; only
// the interior is compared.
func firstGridDivergence(schedule, field string, want, got *grid.Grid) (Divergence, bool) {
	for x := 0; x < want.Nx; x++ {
		for y := 0; y < want.Ny; y++ {
			wr, gr := want.Row(x, y), got.Row(x, y)
			for z := 0; z < want.Nz; z++ {
				if u := ULP32(wr[z], gr[z]); u != 0 {
					return Divergence{
						Schedule: schedule, Field: field, T0: -1, T1: -1,
						X: x, Y: y, Z: z, Want: wr[z], Got: gr[z], ULP: u,
					}, true
				}
			}
		}
	}
	return Divergence{}, false
}

// addFieldsClose asserts FP-tolerance agreement (the unfused-baseline
// contract): the worst pointwise difference must stay below relTolFields of
// the field's dynamic range.
func (r *Report) addFieldsClose(schedule string, want, got map[string]*grid.Grid) {
	for _, name := range sortedFieldNames(want) {
		w, g := want[name], got[name]
		scale := w.MaxAbs()
		if scale == 0 {
			scale = 1
		}
		if diff, x, y, z := w.MaxAbsDiff(g); diff > relTolFields*scale {
			r.Divergences = append(r.Divergences, Divergence{
				Schedule: schedule, Field: name, T0: -1, T1: -1,
				X: x, Y: y, Z: z, Want: w.At(x, y, z), Got: g.At(x, y, z),
				ULP: ULP32(w.At(x, y, z), g.At(x, y, z)),
			})
			return
		}
	}
}

// traceScale returns the maximum absolute sample across a trace block.
func traceScale(tr [][]float32) float64 {
	m := 0.0
	for _, row := range tr {
		for _, v := range row {
			a := float64(v)
			if a < 0 {
				a = -a
			}
			if a > m {
				m = a
			}
		}
	}
	return m
}

// addTracesClose asserts FP-tolerance agreement of receiver traces.
func (r *Report) addTracesClose(schedule string, want, got [][]float32) {
	scale := traceScale(want)
	if scale == 0 {
		scale = 1
	}
	r.compareTraces(schedule, want, got, relTolTraces*scale)
}

// addTracesBitwise asserts bitwise agreement of receiver traces.
func (r *Report) addTracesBitwise(schedule string, want, got [][]float32) {
	r.compareTraces(schedule, want, got, 0)
}

func (r *Report) compareTraces(schedule string, want, got [][]float32, tol float64) {
	if len(want) != len(got) {
		r.Divergences = append(r.Divergences, Divergence{
			Schedule: schedule, Field: "receivers", T0: -1, T1: -1,
			X: min(len(want), len(got)), ULP: -1,
		})
		return
	}
	for t := range want {
		for rec := range want[t] {
			w, g := want[t][rec], got[t][rec]
			d := float64(w) - float64(g)
			if d < 0 {
				d = -d
			}
			if d > tol || (tol == 0 && ULP32(w, g) != 0) {
				r.Divergences = append(r.Divergences, Divergence{
					Schedule: schedule, Field: "receivers", T0: -1, T1: -1,
					X: t, Y: rec, Want: w, Got: g, ULP: ULP32(w, g),
				})
				return
			}
		}
	}
}

// diagnoseTiled localizes a divergence of a tiled schedule kind in time: it
// re-runs the fused spatial schedule capturing a checkpoint at every
// time-tile boundary, then replays the tiled kind one time tile at a time
// until a checkpoint mismatches. The returned divergence carries the
// offending tile range and the first differing point inside it. Tiled state
// is only globally consistent at time-tile boundaries, which is exactly
// where the checkpoints sit. Divergences caused by an actual ordering race
// may not reproduce on replay (the pipelined drain is nondeterministic at
// Workers > 1); the original final-state divergence is then reported as-is.
func diagnoseTiled(b *built, s Scenario, kind tiling.Kind, name string) (*Divergence, error) {
	nt := b.Prop.Steps()
	ckpts := map[int]map[string]*grid.Grid{}
	for _, replay := range []tiling.Kind{tiling.Spatial, kind} {
		b.Prop.Reset()
		for t0 := 0; t0 < nt; t0 += s.WTB.TT {
			t1 := min(t0+s.WTB.TT, nt)
			if err := tiling.Run(b.Prop, replay, s.WTB, t0, t1, nil); err != nil {
				return nil, err
			}
			if replay == tiling.Spatial {
				ckpts[t1] = snapshotFields(b.Prop)
			} else if d, ok := firstFieldDivergence(name, ckpts[t1], b.Prop.Fields()); ok {
				d.T0, d.T1 = t0, t1
				return &d, nil
			}
		}
	}
	return nil, nil // final states match on replay (flaky divergence)
}
