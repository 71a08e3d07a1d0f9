package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// docWith builds a document of the named workload whose end-to-end metrics
// have the given samples.
func docWith(t *testing.T, dir, name, workload string, failed int, vals map[string][]float64) string {
	t.Helper()
	s := samples{}
	for k, vs := range vals {
		s[k] = vs
	}
	table, err := workloadTable("full")
	if err != nil {
		t.Fatal(err)
	}
	w, ok := findWorkload(table, workload)
	if !ok {
		t.Fatalf("no workload %q", workload)
	}
	doc := document{Kind: docKind, Version: docVersion, Host: hostInfo{NProc: 2}, Seed: 1, Scale: "full", Seconds: 1,
		Workloads: []workloadResult{{
			Workload: w, Correct: failed == 0, Attempted: 10, Failed: failed,
			RecordFNV: "0123456789abcdef", Metrics: stats(endToEndOn(w), "end_to_end", s),
		}}}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	base := map[string][]float64{
		"setup_s":     {0.010, 0.010, 0.010},
		"wall_s":      {1.00, 1.01, 0.99},
		"gpts":        {0.100, 0.101, 0.099},
		"peak_rss_mb": {100},
		// What the callers of the service saw; serve_small_jobs has all five.
		"shots_per_s":        {200, 202, 198},
		"jobs_per_s":         {100, 101, 99},
		"job_p50_s":          {0.0200, 0.0202, 0.0198},
		"job_p90_s":          {0.0300, 0.0303, 0.0297},
		"first_record_p50_s": {0.0100, 0.0101, 0.0099},
	}
	with := func(k string, vs ...float64) map[string][]float64 {
		m := map[string][]float64{}
		for name, v := range base {
			m[name] = v
		}
		m[k] = vs
		return m
	}
	const on = "serve_small_jobs"
	basePath := docWith(t, dir, "base.json", on, 0, base)
	for _, tc := range []struct {
		name   string
		failed int
		vals   map[string][]float64
		ok     bool
		want   string // a row that must appear: "metric verdict"
	}{
		{"same", 0, base, true, "wall_s ok"},
		{"within the bound", 0, with("wall_s", 1.03, 1.04, 1.02), true, "wall_s ok"},
		{"slower than the bound", 0, with("wall_s", 1.20, 1.21, 1.19), false, "wall_s REGRESSION"},
		{"lower throughput", 0, with("gpts", 0.080, 0.081, 0.079), false, "gpts REGRESSION"},
		{"higher throughput", 0, with("gpts", 0.200, 0.201, 0.199), true, "gpts ok"},
		{"spread wider than the bound", 0, with("wall_s", 0.8, 1.0, 1.3), false, "wall_s unresolved"},
		{"set-up worse but under its 5 ms floor", 0, with("setup_s", 0.014, 0.014, 0.014), true, "setup_s ok"},
		{"set-up worse beyond the floor", 0, with("setup_s", 0.030, 0.030, 0.030), false, "setup_s REGRESSION"},
		{"set-up spread wide but under the floor", 0, with("setup_s", 0.008, 0.010, 0.012), true, "setup_s ok"},
		{"set-up spread wide beyond the floor", 0, with("setup_s", 0.10, 0.20, 0.30), false, "setup_s unresolved"},
		{"more failures", 1, base, false, "fail_ratio REGRESSION"},
		{"median latency within its 10 %", 0, with("job_p50_s", 0.0215, 0.0216, 0.0214), true, "job_p50_s ok"},
		{"median latency beyond its 10 %", 0, with("job_p50_s", 0.0230, 0.0231, 0.0229), false, "job_p50_s REGRESSION"},
		{"tail latency beyond its 15 %", 0, with("job_p90_s", 0.0360, 0.0361, 0.0359), false, "job_p90_s REGRESSION"},
		{"first record later than its 10 %", 0, with("first_record_p50_s", 0.0120, 0.0121, 0.0119), false, "first_record_p50_s REGRESSION"},
		{"fewer jobs per second", 0, with("jobs_per_s", 90, 91, 89), false, "jobs_per_s REGRESSION"},
	} {
		var out bytes.Buffer
		ok, err := compareFiles(&out, basePath, docWith(t, dir, "new.json", on, tc.failed, tc.vals))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if ok != tc.ok {
			t.Errorf("%s: ok=%v, want %v\n%s", tc.name, ok, tc.ok, out.String())
		}
		found := false
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			found = found || (len(f) > 2 && f[1]+" "+f[len(f)-1] == tc.want)
		}
		if !found {
			t.Errorf("%s: no row %q in\n%s", tc.name, tc.want, out.String())
		}
	}
}

func TestCompareRejectsOtherDocuments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "legacy.json")
	if err := os.WriteFile(path, []byte(`{"kind":"wavetile.bench","version":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := compareFiles(&bytes.Buffer{}, path, path); err == nil {
		t.Error("a document of another kind was accepted")
	}
}
