package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the root BENCHMARK.json, the contract the driver reads.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	var bj benchmarkJSON
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables in the
// code and to the limits of the contract it is written to.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	bj := readBenchmarkJSON(t)
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, defaultSeconds %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Paths) != 1 || bj.Paths[0] != "benchmarks" {
		t.Errorf("paths %v, want [benchmarks]", bj.Paths)
	}
	table, err := workloadTable("full")
	if err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(table) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the table", len(bj.Workloads), len(table))
	}
	seen := map[string]bool{}
	unique := func(name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("name %q does not match %s", name, nameRE)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range table {
		unique(w.Name)
		if bj.Workloads[i].Name != w.Name || bj.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the table %q (%q)", i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.Name, w.Why)
		}
		if len(w.Why) > 200 || strings.ContainsAny(w.Why, "\n\r") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, %d in the table", len(bj.EndToEnd), len(endToEnd))
	}
	setup := false
	for i, d := range endToEnd {
		unique(d.Name)
		m := bj.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %g outside the contract", d.Name, d.Unit, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower is better")
	}
	for _, d := range scoped {
		unique(d.Name)
		if !unitRE.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: unit %q or bound %g outside the contract", d.Name, d.Unit, d.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) || len(perLayer) > 128 {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the table (at most 128)", len(bj.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		unique(d.Name)
		m := bj.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the table %+v", i, m, d)
		}
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("%s: unit %q or direction %q outside the contract", d.Name, d.Unit, d.Better)
		}
	}
}

// TestScopedMetricsFollowTheWorkload pins which workloads the survey and
// service metrics exist on at full scale: a tail percentile only where a
// round has ten jobs beyond it.
func TestScopedMetricsFollowTheWorkload(t *testing.T) {
	table, err := workloadTable("full")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"survey_many_small": "shots_per_s",
		"serve_small_jobs":  "first_record_p50_s job_p50_s job_p90_s jobs_per_s shots_per_s",
		"serve_ckpt_jobs":   "first_record_p50_s job_p50_s jobs_per_s shots_per_s",
	}
	for _, w := range table {
		got := names(endToEndOn(w)[len(endToEnd):])
		if strings.Join(got, " ") != want[w.Name] {
			t.Errorf("%s: scoped metrics %v, want %q", w.Name, got, want[w.Name])
		}
	}
}

// lastLine parses the result line a run ends its output with.
func lastLine(t *testing.T, out []byte) resultLine {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(out), []byte{'\n'})
	dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
	dec.DisallowUnknownFields()
	var rl resultLine
	if err := dec.Decode(&rl); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	return rl
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.Name)
	}
	sort.Strings(out)
	return out
}

// TestSmokeEveryWorkloadBothPasses drives every workload at tiny scale
// through the untraced and the traced pass: each must verify its outputs,
// end with a result line of exactly the metrics BENCHMARK.json names for
// that pass, and measure exactly the workload's metrics — the result line's
// plus, untraced, the scoped end-to-end metrics that exist on the workload.
// The traced shot must account for its wall layer by layer.
func TestSmokeEveryWorkloadBothPasses(t *testing.T) {
	table, err := workloadTable("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range table {
		for trace, defs := range [][]metricDef{endToEnd, perLayer} {
			var out bytes.Buffer
			o := options{workload: w.Name, seed: 3, seconds: 0.02, trace: trace, scale: "tiny",
				tmp: t.TempDir(), traceOut: filepath.Join(t.TempDir(), "trace.json")}
			wr, err := runOne(o, &out)
			if err != nil {
				t.Fatalf("%s trace=%d: %v\n%s", w.Name, trace, err, out.Bytes())
			}
			rl := lastLine(t, out.Bytes())
			if !rl.Correct || rl.Failed != 0 || rl.Attempted < 1 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d notes=%v", w.Name, trace, rl.Correct, rl.Attempted, rl.Failed, wr.Notes)
			}
			var got []string
			for name, v := range rl.Metrics {
				got = append(got, name)
				if !nameRE.MatchString(name) {
					t.Errorf("%s trace=%d: metric name %q", w.Name, trace, name)
				}
				if v.Unit == "" {
					t.Errorf("%s trace=%d: metric %s has no unit", w.Name, trace, name)
				}
			}
			sort.Strings(got)
			if want := names(defs); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s trace=%d: result line metrics\n%v\nwant\n%v", w.Name, trace, got, want)
			}
			want := defs
			if trace == 0 {
				want = endToEndOn(w)
			}
			var measured []string
			for _, m := range wr.Metrics {
				measured = append(measured, m.Name)
				if m.N < 1 || m.Unit == "" {
					t.Errorf("%s trace=%d: metric %s has %d samples, unit %q", w.Name, trace, m.Name, m.N, m.Unit)
				}
			}
			sort.Strings(measured)
			if strings.Join(measured, " ") != strings.Join(names(want), " ") {
				t.Errorf("%s trace=%d: measured metrics\n%v\nwant\n%v", w.Name, trace, measured, names(want))
			}
			if trace == 0 {
				for _, d := range endToEnd {
					if rl.Metrics[d.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s is %g, must never be 0", w.Name, d.Name, rl.Metrics[d.Name].Value)
					}
				}
				continue
			}
			if v := rl.Metrics["serve.rejected"].Value; v != 0 {
				t.Errorf("%s: %g submissions refused", w.Name, v)
			}
			for _, k := range kernelNames {
				if v := rl.Metrics["wave."+k+".generic_steps"].Value; v != 0 {
					t.Errorf("%s: kernel %s took %g steps through the generic fallback", w.Name, k, v)
				}
			}
			if w.Kind == kindShot {
				// Layer self times against the traced wall: what the model
				// constructor, the wave constructor, the Steps and the
				// schedule's own time leave over is harness glue.
				sum := rl.Metrics["model.build_frac"].Value + rl.Metrics["wave.new_frac"].Value +
					rl.Metrics["wave.step_frac"].Value + rl.Metrics["tiling.self_frac"].Value
				if sum < 0.9 || sum > 1.0001 {
					t.Errorf("%s: layer shares sum to %.3f of the traced wall, want within 10%%", w.Name, sum)
				}
			}
			checkChromeTrace(t, o.traceOut)
		}
	}
}

// checkChromeTrace loads a written trace: complete events whose parent
// links resolve and that carry an operation id.
func checkChromeTrace(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tr struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Cat  string  `json:"cat"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
			Args struct {
				ID     int  `json:"id"`
				Parent int  `json:"parent"`
				Op     *int `json:"op"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(b, &tr); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tr.TraceEvents) == 0 {
		t.Fatalf("%s: no events", path)
	}
	ids := map[int]bool{}
	for _, ev := range tr.TraceEvents {
		ids[ev.Args.ID] = true
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph != "X" || ev.Name == "" || ev.Cat == "" || ev.Dur < 0 || ev.Args.Op == nil {
			t.Fatalf("%s: malformed event %+v", path, ev)
		}
		if ev.Args.Parent != 0 && !ids[ev.Args.Parent] {
			t.Fatalf("%s: event %d names a parent %d that is not in the trace", path, ev.Args.ID, ev.Args.Parent)
		}
	}
}
