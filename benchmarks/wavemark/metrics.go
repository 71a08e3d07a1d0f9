package main

import (
	"math"
	"sort"
)

// metricDef names one metric of the benchmark. The universal end-to-end
// metrics and the per-layer metrics are also written into BENCHMARK.json at
// the repository root; a test asserts the two agree, so a metric cannot be
// renamed or re-bounded in one place only.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare calls it a regression (end-to-end only).
	Bound float64
	// Floor is an absolute difference, in the metric's unit, below which a
	// change is never a regression: a 5 ms set-up cannot be held to a share.
	Floor float64
	// On says which workloads an end-to-end metric exists on; nil is all.
	On func(workload) bool
}

// defaultSeconds is BENCHMARK.json's run_seconds: how long the timed part
// of one untraced run measures.
const defaultSeconds = 8

// endToEnd are the metrics a user of the system sees on every workload:
// BENCHMARK.json's end_to_end list, and what the result line of an untraced
// run carries. Failures are not a metric (a metric may never read 0): the
// result line carries them as failed/attempted, and -compare rejects any
// increase. The bounds are the issue's, except where three times the widest
// spread recorded on the reference host is larger (README, "Bounds").
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Floor: 0.005},
	{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.05},
	{Name: "gpts", Unit: "GPts/s", Better: "higher", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// minP90Jobs is the least number of jobs in a round for its 90th percentile
// to have ten samples beyond it.
const minP90Jobs = 100

// scoped are the end-to-end metrics that exist on some workloads only: what
// a caller of the survey engine or the service sees. The untraced pass of
// those workloads measures them from its timed repetitions, prints them,
// writes them into the result document and -compare judges them like the
// universal four. The result line cannot carry them — BENCHMARK.json's
// contract wants every end-to-end metric on every workload — so the traced
// pass reports the same quantities as batch.* and serve.* per-layer metrics.
var scoped = []metricDef{
	{Name: "shots_per_s", Unit: "1/s", Better: "higher", Bound: 0.05, On: func(w workload) bool { return w.Kind != kindShot }},
	{Name: "jobs_per_s", Unit: "1/s", Better: "higher", Bound: 0.05, On: onServe},
	{Name: "job_p50_s", Unit: "s", Better: "lower", Bound: 0.10, On: onServe},
	{Name: "job_p90_s", Unit: "s", Better: "lower", Bound: 0.15, On: func(w workload) bool { return onServe(w) && w.Jobs >= minP90Jobs }},
	{Name: "first_record_p50_s", Unit: "s", Better: "lower", Bound: 0.10, On: onServe},
}

func onServe(w workload) bool { return w.Kind == kindServe }

// endToEndOn returns the end-to-end metrics of workload w: the universal
// ones, then the scoped ones that exist on it.
func endToEndOn(w workload) []metricDef {
	defs := append([]metricDef(nil), endToEnd...)
	for _, d := range scoped {
		if d.On(w) {
			defs = append(defs, d)
		}
	}
	return defs
}

// kernelNames are the stencil kernels the wave layer is probed at.
var kernelNames = []string{
	"acoustic_so4", "acoustic_so8", "tti_so4", "tti_so8", "elastic_so4", "elastic_so8",
}

// perLayer are the metrics of single layers, reported by every workload of
// the traced pass and grouped by the module they time from outside.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	lo := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "lower"} }
	hi := func(name, unit string) metricDef { return metricDef{Name: name, Unit: unit, Better: "higher"} }
	defs := []metricDef{
		hi("hostcal.triad_gbs", "GB/s"),
		hi("hostcal.peak_gflops_1c", "GFLOP/s"),
		hi("hostcal.llc_mb", "MB"),

		lo("model.build_s", "s"),
		lo("model.build_frac", "ratio"),

		lo("sparse.support_us_per_point", "us"),
		lo("sparse.inject_baseline_ns_per_entry", "ns"),
		lo("sparse.interp_baseline_ns_per_entry", "ns"),

		lo("core.build_masks_s", "s"),
		lo("core.decompose_s", "s"),
		lo("core.affected_points", "count"),
		lo("core.inject_ns_per_point", "ns"),
		lo("core.sample_ns_per_point", "ns"),
		lo("core.gather_s", "s"),
	}
	for _, k := range kernelNames {
		defs = append(defs,
			hi("wave."+k+".step_gpts", "GPts/s"),
			lo("wave."+k+".flops_per_pt", "count"),
			hi("wave."+k+".gflops", "GFLOP/s"),
			hi("wave."+k+".roofline_frac", "ratio"),
			lo("wave."+k+".generic_steps", "count"),
		)
	}
	return append(defs,
		lo("wave.new_s", "s"),
		lo("wave.clone_us", "us"),
		lo("wave.new_frac", "ratio"),
		hi("wave.step_frac", "ratio"),

		hi("tiling.spatial_gpts", "GPts/s"),
		hi("tiling.wtb_gpts", "GPts/s"),
		hi("tiling.pipelined_gpts", "GPts/s"),
		hi("tiling.wtb_over_spatial", "ratio"),
		hi("tiling.pipelined_over_wtb", "ratio"),
		lo("tiling.step_calls", "count"),
		lo("tiling.step_busy_s", "s"),
		lo("tiling.self_s", "s"),
		lo("tiling.self_frac", "ratio"),

		lo("sched.graph_build_us", "us"),
		lo("sched.empty_task_ns", "ns"),
		lo("sched.tasks", "count"),

		lo("par.for_call_ns", "ns"),
		lo("par.for_item_ns", "ns"),
		hi("par.scaling_eff", "ratio"),

		hi("grid.zero_gbs", "GB/s"),
		hi("grid.clone_gbs", "GB/s"),
		lo("grid.pool_cycle_ns", "ns"),

		lo("batch.dispatch_us_per_shot", "us"),
		lo("batch.precompute_s", "s"),
		hi("batch.pool_hit_ratio", "ratio"),
		hi("batch.survey_over_seq", "ratio"),
		lo("batch.lane_idle_frac", "ratio"),
		hi("batch.shots_per_s", "1/s"),

		lo("wavesim.new_s", "s"),
		lo("wavesim.newsurvey_s", "s"),
		lo("wavesim.run_over_tiling", "ratio"),
		hi("wavesim.ckpt_encode_mbs", "MB/s"),
		hi("wavesim.ckpt_decode_mbs", "MB/s"),
		lo("wavesim.ckpt_bytes", "count"),
		lo("wavesim.resumable_over_run", "ratio"),

		hi("verify.snapshot_write_mbs", "MB/s"),
		hi("verify.snapshot_read_mbs", "MB/s"),

		lo("serve.decode_build_us", "us"),
		lo("serve.submit_p50_ms", "ms"),
		lo("serve.queue_wait_p50_ms", "ms"),
		hi("serve.stream_mbs", "MB/s"),
		lo("serve.ndjson_bytes_per_job", "count"),
		lo("serve.overhead_frac", "ratio"),
		lo("serve.ckpt_overhead_frac", "ratio"),
		lo("serve.ckpt_writes", "count"),
		lo("serve.ckpt_bytes", "count"),
		lo("serve.resume_s", "s"),
		lo("serve.rejected", "count"),
		hi("serve.jobs_per_s", "1/s"),
		hi("serve.shots_per_s", "1/s"),
		lo("serve.job_p50_s", "s"),
		lo("serve.job_p90_s", "s"),
		lo("serve.first_record_p50_s", "s"),

		lo("obs.observe_overhead_frac", "ratio"),

		hi("dist.perstep_gpts", "GPts/s"),
		hi("dist.deephalo_gpts", "GPts/s"),

		lo("trace.overhead_frac", "ratio"),
		lo("trace.spans", "count"),
	)
}

// samples collects the measurements of one run, keyed by metric name. A
// metric's reported value is the median of its samples.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// quartiles returns the first quartile, median and third quartile of vs the
// way Python's statistics.quantiles(vs, n=4) does (exclusive method), which
// is what the benchmark contract measures spread with. One value is its own
// quartiles; none are all zero (the caller reports the metric as missing).
func quartiles(vs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	m := len(d)
	switch m {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return q(1), median(d), q(3)
}

// median of vs (NaN when empty).
func median(vs []float64) float64 {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	switch m := len(d); {
	case m == 0:
		return math.NaN()
	case m%2 == 1:
		return d[m/2]
	default:
		return (d[m/2-1] + d[m/2]) / 2
	}
}

// percentile returns the p-quantile (0 < p < 1) of vs by nearest rank.
func percentile(vs []float64, p float64) float64 {
	d := append([]float64(nil), vs...)
	sort.Float64s(d)
	if len(d) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p*float64(len(d)))) - 1
	return d[min(max(i, 0), len(d)-1)]
}

// metricStat is one metric of one workload in the result document.
type metricStat struct {
	Name    string    `json:"name"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Kind    string    `json:"kind"` // "end_to_end" or "per_layer"
	Bound   float64   `json:"bound,omitempty"`
	Floor   float64   `json:"floor,omitempty"`
	N       int       `json:"n"`
	Median  float64   `json:"median"`
	Q1      float64   `json:"q1"`
	Q3      float64   `json:"q3"`
	Samples []float64 `json:"samples"`
}

// stats summarizes the samples of every metric in defs, in table order.
func stats(defs []metricDef, kind string, s samples) []metricStat {
	out := make([]metricStat, 0, len(defs))
	for _, d := range defs {
		q1, med, q3 := quartiles(s[d.Name])
		out = append(out, metricStat{
			Name: d.Name, Unit: d.Unit, Better: d.Better, Kind: kind,
			Bound: d.Bound, Floor: d.Floor,
			N: len(s[d.Name]), Median: med, Q1: q1, Q3: q3, Samples: s[d.Name],
		})
	}
	return out
}
