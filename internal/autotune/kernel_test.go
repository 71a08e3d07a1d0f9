package autotune

import (
	"testing"

	"wavetile/internal/grid"
	"wavetile/internal/tiling"
)

// kernProp is a fake kernel-tunable propagator: variant "fast" does less
// per-step busywork than "slow", so the tuner must rank it first.
type kernProp struct {
	sleepProp
	variants []string
	variant  string
	work     map[string]int
}

func (k *kernProp) KernelVariants() []string { return k.variants }
func (k *kernProp) SetKernelVariant(v string) error {
	k.variant = v
	return nil
}
func (k *kernProp) Step(t int, r grid.Region, fused bool) {
	sink := 0
	for i := 0; i < k.work[k.variant]; i++ {
		sink += i
	}
	_ = sink
}

func kernRunner(variants []string) Runner {
	return func(nt int) (tiling.Propagator, error) {
		return &kernProp{
			sleepProp: sleepProp{nx: 32, ny: 32, nt: nt},
			variants:  variants,
			work:      map[string]int{"fast": 2_000, "slow": 2_000_000},
		}, nil
	}
}

var blocks16 = tiling.Config{BlockX: 16, BlockY: 16}

func TestTuneKernelVariantsRanksFastest(t *testing.T) {
	res, err := TuneKernelVariants(kernRunner([]string{"slow", "fast"}), tiling.Spatial, blocks16, 4, 2, 32*32)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 {
		t.Fatalf("got %d results, want 2", len(res))
	}
	if res[0].Variant != "fast" {
		t.Fatalf("winner = %q, want fast (order %v)", res[0].Variant, res)
	}
	if res[0].Elapsed <= 0 || res[0].GPts <= 0 {
		t.Fatalf("degenerate measurement: %+v", res[0])
	}
	best, err := BestKernelVariant(kernRunner([]string{"slow", "fast"}), tiling.Spatial, blocks16, 4, 2, 32*32)
	if err != nil {
		t.Fatal(err)
	}
	if best != "fast" {
		t.Fatalf("BestKernelVariant = %q, want fast", best)
	}
}

func TestTuneKernelVariantsErrors(t *testing.T) {
	// Generic-only radius: no variants to sweep is an error, not a win.
	if _, err := TuneKernelVariants(kernRunner(nil), tiling.Spatial, blocks16, 2, 1, 32*32); err == nil {
		t.Fatal("expected error for empty variant list")
	}
	// Propagator without the kernel-variant surface.
	plain := func(nt int) (tiling.Propagator, error) {
		return &sleepProp{nx: 32, ny: 32, nt: nt}, nil
	}
	if _, err := TuneKernelVariants(plain, tiling.Spatial, blocks16, 2, 1, 32*32); err == nil {
		t.Fatal("expected error for non-tunable propagator")
	}
}
