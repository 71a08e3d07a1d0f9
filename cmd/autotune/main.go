// Command autotune regenerates Table I of the paper: the optimal WTB
// tile/block shapes per kernel, found either by sweeping the parameter
// space on short timed runs (§IV-C) on this host, or — with -predict — by
// ranking every candidate with the calibrated measured-hardware roofline
// (trace replay through the cache simulator) and measuring only the top-K.
//
// Examples:
//
//	autotune -n 128 -tunesteps 8 -models acoustic,elastic,tti -orders 4,8,12 -top 3
//	autotune -n 128 -predict -topk 1 -machine host            # model-ranked, 1 confirmation run
//	autotune -n 64 -predict -compare -json > BENCH_PR10.json  # sweep-vs-predict validation
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"wavetile/internal/bench"
	"wavetile/internal/roofline"
	"wavetile/internal/tiling"
)

func main() {
	n := flag.Int("n", 128, "grid edge (paper: 512)")
	tuneSteps := flag.Int("tunesteps", 8, "timesteps per measurement")
	repeats := flag.Int("repeats", 2, "measurements per candidate (best-of)")
	models := flag.String("models", "acoustic,elastic,tti", "comma-separated models")
	orders := flag.String("orders", "4,8,12", "comma-separated space orders")
	tts := flag.String("tt", "8,16,32", "time-tile depths to sweep")
	top := flag.Int("top", 1, "report the best k configurations per kernel")
	csv := flag.Bool("csv", false, "emit CSV")
	schedule := flag.String("schedule", "wtb", "runtime to sweep: wtb (sequential tiles) or wtb-pipelined (task graph)")
	kernels := flag.Bool("kernels", false, "sweep generated kernel variants (base, y2, …) per model×order instead of tile shapes")
	predict := flag.Bool("predict", false, "rank candidates with the calibrated roofline instead of measuring them all")
	topk := flag.Int("topk", 1, "with -predict: confirm the k best-predicted candidates on hardware (0 = zero-shot)")
	machine := flag.String("machine", "", `roofline machine for -predict: "" (auto), host, broadwell or skylake`)
	hostcalPath := flag.String("hostcal", "", "host fingerprint path (default $WAVETILE_HOSTCAL or ~/.cache/wavesim/hostcal.json)")
	tracen := flag.Int("tracen", 48, "with -predict: trace grid edge for the per-candidate replay")
	compare := flag.Bool("compare", false, "with -predict: also run the full sweep and score the predictor (winner agreement, regret)")
	jsonOut := flag.Bool("json", false, "with -predict -compare: emit the comparison as JSON")
	flag.Parse()

	if *kernels {
		sweepKernels(*n, *tuneSteps, *repeats, *models, *orders, *csv)
		return
	}

	kind := tiling.WTB
	switch *schedule {
	case "wtb":
	case "wtb-pipelined", "pipelined":
		kind = tiling.WTBPipelined
	default:
		fatal(fmt.Errorf("unknown -schedule %q (want wtb or wtb-pipelined)", *schedule))
	}

	var ttList []int
	for _, s := range strings.Split(*tts, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil {
			fatal(err)
		}
		ttList = append(ttList, v)
	}

	if *predict {
		cal, err := bench.ResolveMachine(*machine, *hostcalPath)
		if err != nil {
			fatal(err)
		}
		o := bench.PredictTuneOptions{
			TraceN: *tracen, TopK: *topk, TuneSteps: *tuneSteps, Repeats: *repeats,
		}
		if *compare {
			comparePredict(*n, *models, *orders, ttList, cal, o, *csv, *jsonOut)
		} else {
			sweepPredict(*n, *models, *orders, ttList, kind, cal, o, *top, *csv)
		}
		return
	}

	table := &bench.Table{
		Title: fmt.Sprintf("Table I — optimal WTB tile/block shapes (host, %d³ grid, %d tuning steps, %s runtime)",
			*n, *tuneSteps, *schedule),
		Header: []string{"Problem", "rank", "TT", "tile_x", "tile_y", "block_x", "block_y", "GPts/s"},
	}
	for _, m := range strings.Split(*models, ",") {
		for _, o := range strings.Split(*orders, ",") {
			so, err := strconv.Atoi(strings.TrimSpace(o))
			if err != nil {
				fatal(err)
			}
			spec := bench.Spec{Model: strings.TrimSpace(m), SO: so, N: *n}
			results, err := bench.TuneWTB(spec, kind, *tuneSteps, *repeats, ttList)
			if err != nil {
				fatal(err)
			}
			for i := 0; i < *top && i < len(results); i++ {
				r := results[i]
				table.Add(spec.Name(), i+1, r.Cfg.TT, r.Cfg.TileX, r.Cfg.TileY,
					r.Cfg.BlockX, r.Cfg.BlockY, r.GPts)
			}
			fmt.Fprintf(os.Stderr, "tuned %s: %d candidates, best %v\n",
				spec.Name(), len(results), results[0].Cfg)
		}
	}
	if *csv {
		table.FprintCSV(os.Stdout)
	} else {
		table.Fprint(os.Stdout)
	}
}

// sweepKernels times every generated kernel variant of every model×order
// under the spatial schedule and reports them ranked, so a host can pick
// the variant to pin via wavesim.Options.KernelVariant (or propagate
// -kernel). An order with no generated kernels is a hard error — that is
// the silent-fallback condition the generator exists to eliminate.
func sweepKernels(n, tuneSteps, repeats int, models, orders string, csv bool) {
	table := &bench.Table{
		Title: fmt.Sprintf("Generated kernel variants (host, %d³ grid, %d tuning steps, spatial runtime)",
			n, tuneSteps),
		Header: []string{"Problem", "rank", "variant", "GPts/s"},
	}
	for _, m := range strings.Split(models, ",") {
		for _, o := range strings.Split(orders, ",") {
			so, err := strconv.Atoi(strings.TrimSpace(o))
			if err != nil {
				fatal(err)
			}
			spec := bench.Spec{Model: strings.TrimSpace(m), SO: so, N: n}
			results, err := bench.TuneKernels(spec, tuneSteps, repeats)
			if err != nil {
				fatal(err)
			}
			for i, r := range results {
				table.Add(spec.Name(), i+1, r.Variant, r.GPts)
			}
			fmt.Fprintf(os.Stderr, "tuned %s kernels: best %q\n", spec.Name(), results[0].Variant)
		}
	}
	if csv {
		table.FprintCSV(os.Stdout)
	} else {
		table.Fprint(os.Stdout)
	}
}

// specsFor expands the -models/-orders grid.
func specsFor(n int, models, orders string) []bench.Spec {
	var out []bench.Spec
	for _, m := range strings.Split(models, ",") {
		for _, o := range strings.Split(orders, ",") {
			so, err := strconv.Atoi(strings.TrimSpace(o))
			if err != nil {
				fatal(err)
			}
			out = append(out, bench.Spec{Model: strings.TrimSpace(m), SO: so, N: n})
		}
	}
	return out
}

// sweepPredict is the predictive counterpart of the Table-I sweep: rank by
// model, confirm top-K, report predicted and (where confirmed) measured
// throughput per kernel.
func sweepPredict(n int, models, orders string, ttList []int, kind tiling.Kind, cal roofline.Calibrated, o bench.PredictTuneOptions, top int, csv bool) {
	table := &bench.Table{
		Title: fmt.Sprintf("Table I (predicted) — WTB shapes ranked by calibrated roofline (%s, %d³ grid, top-%d confirmed)",
			cal.Machine.Name, n, o.TopK),
		Header: []string{"Problem", "rank", "TT", "tile_x", "tile_y", "block_x", "block_y", "pred GPts/s", "meas GPts/s"},
	}
	for _, spec := range specsFor(n, models, orders) {
		results, err := bench.TunePredictWTB(spec, kind, cal, ttList, o)
		if err != nil {
			fatal(err)
		}
		for i := 0; i < top && i < len(results); i++ {
			r := results[i]
			meas := "-"
			if r.Measured {
				meas = fmt.Sprintf("%.4f", r.GPts)
			}
			table.Add(spec.Name(), i+1, r.Cfg.TT, r.Cfg.TileX, r.Cfg.TileY,
				r.Cfg.BlockX, r.Cfg.BlockY, r.Predicted.GPointsPS, meas)
		}
		fmt.Fprintf(os.Stderr, "predicted %s: %d candidates, winner %v\n",
			spec.Name(), len(results), results[0].Cfg)
	}
	if csv {
		table.FprintCSV(os.Stdout)
	} else {
		table.Fprint(os.Stdout)
	}
}

// comparePredict runs sweep and predictor side by side and scores the
// predictor — the validation harness behind BENCH_PR10.json.
func comparePredict(n int, models, orders string, ttList []int, cal roofline.Calibrated, o bench.PredictTuneOptions, csv, jsonOut bool) {
	doc, err := bench.PredictBench(specsFor(n, models, orders), cal, ttList, o)
	if err != nil {
		fatal(err)
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(doc); err != nil {
			fatal(err)
		}
		return
	}
	table := &bench.Table{
		Title: fmt.Sprintf("Sweep vs predict (%s, %d³ grid, top-%d confirmed)", doc.Machine, n, doc.TopK),
		Header: []string{"Problem", "cands", "sweep ms", "predict ms", "meas",
			"sweep winner", "predict winner", "agree", "regret"},
	}
	for _, r := range doc.Rows {
		table.Add(fmt.Sprintf("%s/so%d", r.Model, r.SO), r.Candidates,
			fmt.Sprintf("%.0f", r.SweepMS), fmt.Sprintf("%.0f", r.PredictMS), r.Measured,
			r.SweepWinner, r.PredictWinner, r.Agree, fmt.Sprintf("%.3f", r.Regret))
	}
	if csv {
		table.FprintCSV(os.Stdout)
	} else {
		table.Fprint(os.Stdout)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "autotune:", err)
	os.Exit(1)
}
