package autotune

import (
	"fmt"
	"sort"
	"time"

	"wavetile/internal/tiling"
)

// KernelTunable is the kernel-variant surface the generated-kernel
// dispatch exposes (implemented by all three wave propagators and by
// wavesim.Simulation). Variants are bitwise-identical per point — only
// loop structure differs — so sweeping them is a pure performance choice
// with no numerical consequences.
type KernelTunable interface {
	KernelVariants() []string
	SetKernelVariant(string) error
}

// KernelResult records one measured kernel variant.
type KernelResult struct {
	Variant string
	Elapsed time.Duration
	GPts    float64
}

// TuneKernelVariants measures every generated kernel variant of the
// propagators built by run under the given schedule kind and config (for
// the spatial kinds only the config's block shape applies), returning
// results sorted fastest-first. The propagator must implement
// KernelTunable; an empty variant list (generic-only radius) returns an
// error rather than a hollow win.
func TuneKernelVariants(run Runner, kind tiling.Kind, cfg tiling.Config, tuneSteps, repeats, points int) ([]KernelResult, error) {
	probe, err := run(tuneSteps)
	if err != nil {
		return nil, err
	}
	kt, ok := probe.(KernelTunable)
	if !ok {
		return nil, fmt.Errorf("autotune: propagator %T has no kernel variants", probe)
	}
	variants := kt.KernelVariants()
	if len(variants) == 0 {
		return nil, fmt.Errorf("autotune: no generated kernel variants for this radius (generic fallback only)")
	}
	results := make([]KernelResult, 0, len(variants))
	for _, v := range variants {
		best, err := bestOf(run, kind, cfg, tuneSteps, repeats, func(p tiling.Propagator) error {
			return p.(KernelTunable).SetKernelVariant(v)
		})
		if err != nil {
			return nil, err
		}
		results = append(results, KernelResult{
			Variant: v,
			Elapsed: best,
			GPts:    float64(points) * float64(tuneSteps) / best.Seconds() / 1e9,
		})
	}
	sort.Slice(results, func(i, j int) bool { return results[i].Elapsed < results[j].Elapsed })
	return results, nil
}

// BestKernelVariant returns only the winning variant name.
func BestKernelVariant(run Runner, kind tiling.Kind, cfg tiling.Config, tuneSteps, repeats, points int) (string, error) {
	res, err := TuneKernelVariants(run, kind, cfg, tuneSteps, repeats, points)
	if err != nil {
		return "", err
	}
	return res[0].Variant, nil
}
