package wave

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"wavetile/internal/grid"
	"wavetile/internal/obs"
	"wavetile/internal/tiling"
)

// kernProp is the slice of propagator surface the variant tests drive: run
// under a schedule, switch kernel variants, and read the fields back.
type kernProp interface {
	tiling.Propagator
	SetKernelVariant(string) error
	KernelName() string
	KernelVariants() []string
	Fields() map[string]*grid.Grid
}

// variantCase builds one (physics, space order) propagator instance.
type variantCase struct {
	name  string
	so    int
	build func(t *testing.T) kernProp
}

// variantCases covers every generated physics × radius pair at every space
// order the paper uses (4, 8, 12 — radii 2, 4, 6).
func variantCases() []variantCase {
	var cases []variantCase
	for _, so := range paperOrders() {
		so := so
		cases = append(cases,
			variantCase{fmt.Sprintf("acoustic/SO%d", so), so,
				func(t *testing.T) kernProp { return buildAcoustic(t, 32, so, 2) }},
			variantCase{fmt.Sprintf("elastic/SO%d", so), so,
				func(t *testing.T) kernProp { return buildElastic(t, 28, so) }},
			variantCase{fmt.Sprintf("tti/SO%d", so), so,
				func(t *testing.T) kernProp { return buildTTI(t, 26, so) }},
		)
	}
	return cases
}

func runVariant(t *testing.T, c variantCase, variant string) kernProp {
	t.Helper()
	p := c.build(t)
	if err := p.SetKernelVariant(variant); err != nil {
		t.Fatalf("SetKernelVariant(%q): %v", variant, err)
	}
	if got := p.KernelName(); !strings.HasSuffix(got, "/"+variant) {
		t.Fatalf("KernelName() = %q, want suffix /%s", got, variant)
	}
	tiling.RunSpatial(p, 8, 8, true)
	return p
}

// TestKernelVariantsAgree table-drives every generated physics × radius ×
// variant kernel against the radius-generic implementation: each variant
// must agree with generic to FP-reassociation tolerance (the generated
// kernels reorder derivative accumulations, nothing else), and the y2
// row-pipelined variant must match base bitwise (identical per-point
// arithmetic — the property that makes autotune variant switching safe
// under the schedule-equivalence oracle).
func TestKernelVariantsAgree(t *testing.T) {
	for _, c := range variantCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			probe := c.build(t)
			variants := probe.KernelVariants()
			if len(variants) == 0 {
				t.Fatalf("%s: no generated kernel variants (silent generic fallback)", c.name)
			}
			if strings.HasSuffix(probe.KernelName(), "/"+KernelGeneric) {
				t.Fatalf("%s: default dispatch selected the generic kernel", c.name)
			}

			gen := c.build(t)
			if err := gen.SetKernelVariant(KernelGeneric); err != nil {
				t.Fatalf("pin generic: %v", err)
			}
			tiling.RunSpatial(gen, 8, 8, true)
			genFields := gen.Fields()

			results := make(map[string]kernProp, len(variants))
			for _, v := range variants {
				p := runVariant(t, c, v)
				results[v] = p
				for name, f := range p.Fields() {
					ref := genFields[name]
					d, x, y, z := f.MaxAbsDiff(ref)
					scale := math.Max(ref.MaxAbs(), 1e-30)
					if d > 1e-5*math.Max(scale, 1e-12) {
						t.Fatalf("%s variant %s field %s: disagrees with generic, rel %g at (%d,%d,%d)",
							c.name, v, name, d/scale, x, y, z)
					}
				}
			}

			base, ok := results[KernelBase]
			if !ok {
				t.Fatalf("%s: no %q variant generated", c.name, KernelBase)
			}
			for _, v := range variants {
				if v == KernelBase {
					continue
				}
				for name, f := range results[v].Fields() {
					if d, x, y, z := f.MaxAbsDiff(base.Fields()[name]); d != 0 {
						t.Fatalf("%s variant %s field %s: not bitwise equal to base, |Δ|=%g at (%d,%d,%d)",
							c.name, v, name, d, x, y, z)
					}
				}
			}
		})
	}
}

// TestUnsupportedRadiusFallsBackObservably builds a propagator at a space
// order outside the generated set (SO-16) and checks the contract for
// unspecialized radii: dispatch lands on the generic kernel, KernelName
// says so, KernelVariants is empty, and running steps bumps the
// kernel_generic_steps counter when observability is installed.
func TestUnsupportedRadiusFallsBackObservably(t *testing.T) {
	p := buildAcoustic(t, 36, 16, 1)
	if got := p.KernelName(); got != "acoustic/r8/generic" {
		t.Fatalf("KernelName() = %q, want acoustic/r8/generic", got)
	}
	if vs := p.KernelVariants(); len(vs) != 0 {
		t.Fatalf("KernelVariants() = %v, want none at radius 8", vs)
	}

	r := obs.NewRegistry()
	restore := obs.Swap(r)
	defer restore()
	p.Step(0, grid.Region{X0: 8, X1: 24, Y0: 8, Y1: 24}, false)
	if got := r.Counter(CounterGenericSteps).Load(); got != 1 {
		t.Fatalf("%s = %d after one generic Step, want 1", CounterGenericSteps, got)
	}

	// A generated radius must never touch the counter.
	sp := buildAcoustic(t, 32, 8, 1)
	sp.Step(0, grid.Region{X0: 8, X1: 24, Y0: 8, Y1: 24}, false)
	if got := r.Counter(CounterGenericSteps).Load(); got != 1 {
		t.Fatalf("%s = %d after specialized Step, want still 1", CounterGenericSteps, got)
	}
}

// TestSetKernelVariantRejectsUnknown checks that a bogus variant is an
// error and leaves the previous selection installed.
func TestSetKernelVariantRejectsUnknown(t *testing.T) {
	p := buildAcoustic(t, 32, 8, 1)
	before := p.KernelName()
	if err := p.SetKernelVariant("no-such-variant"); err == nil {
		t.Fatal("SetKernelVariant accepted an unknown variant")
	}
	if got := p.KernelName(); got != before {
		t.Fatalf("failed SetKernelVariant changed selection: %q → %q", before, got)
	}
}
