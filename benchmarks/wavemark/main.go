// Command wavemark is the repository's one layered benchmark: seven
// workloads, end-to-end metrics measured with tracing off (four on every
// workload, five more on the survey and serve workloads), and the per-layer
// numbers from a traced pass. See ../README.md. Run it from benchmarks/, the
// root of its module:
//
//	go run ./wavemark -seed 1                every workload, each in a child process
//	go run ./wavemark -seed 1 -trace 1       the same, then the traced pass
//	go run ./wavemark -workload NAME -seed 1 -seconds 8 -trace 0|1     one run (BENCHMARK.json's command)
//	go run ./wavemark -compare A.json B.json hold B to A, metric by metric
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"wavetile/internal/par"
)

// docKind and docVersion tag the result document.
const (
	docKind    = "wavetile.benchmark"
	docVersion = 1
)

// document is what a complete pass writes: one schema for every workload
// and metric, with the host it was measured on.
type document struct {
	Kind      string           `json:"kind"`
	Version   int              `json:"version"`
	Host      hostInfo         `json:"host"`
	Seed      int64            `json:"seed"`
	Scale     string           `json:"scale"`
	Seconds   float64          `json:"seconds"`
	Workloads []workloadResult `json:"workloads"`
}

// workloadResult is one workload of one pass.
type workloadResult struct {
	Workload  workload     `json:"workload"`
	Trace     bool         `json:"trace"`
	Correct   bool         `json:"correct"`
	Attempted int          `json:"attempted"`
	Failed    int          `json:"failed"`
	RecordFNV string       `json:"record_fnv"`
	ElapsedS  float64      `json:"elapsed_s"`
	Metrics   []metricStat `json:"metrics"`
	Notes     []string     `json:"notes,omitempty"`
}

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	scale    string
	out      string
	jsonPath string
	traceOut string
	tmp      string
	compare  bool
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("wavemark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "run this one workload in this process and print its result line")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generated coordinate and job priority")
	fs.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long the timed part of an untraced run measures")
	fs.IntVar(&o.trace, "trace", 0, "1 runs the traced pass, which reports the per-layer metrics")
	fs.StringVar(&o.scale, "scale", "full", "full, or tiny for a smoke run")
	fs.StringVar(&o.out, "out", filepath.Join("results", "wavemark.json"), "all workloads: where to write the result document")
	fs.StringVar(&o.jsonPath, "json", "", "one workload: also write its result as JSON here")
	fs.StringVar(&o.traceOut, "trace-out", "", "one workload: write the traced pass's Chrome trace here")
	fs.StringVar(&o.tmp, "tmp", filepath.Join(".build", "tmp"), "scratch directory for checkpoint files")
	fs.BoolVar(&o.compare, "compare", false, "compare two result documents: -compare BASE.json NEW.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case o.compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: wavemark -compare BASE.json NEW.json")
			return 2
		}
		var ok bool
		if ok, err = compareFiles(stdout, fs.Arg(0), fs.Arg(1)); err == nil && !ok {
			return 1
		}
	case o.workload != "":
		var wr *workloadResult
		if wr, err = runOne(o, stdout); err == nil && !wr.Correct {
			return 1
		}
	default:
		var ok bool
		if ok, err = runAll(o, stdout, stderr); err == nil && !ok {
			return 1
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "wavemark:", err)
		return 1
	}
	return 0
}

// resultLine is the last line of a one-workload run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runOne runs one workload in this process: generate its inputs from the
// seed, measure (untraced) or trace, verify, print every metric and end
// with the result line.
func runOne(o options, stdout io.Writer) (*workloadResult, error) {
	table, err := workloadTable(o.scale)
	if err != nil {
		return nil, err
	}
	w, ok := findWorkload(table, o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return nil, fmt.Errorf("-trace must be 0 or 1")
	}
	runtime.GOMAXPROCS(workers())
	par.Workers = workers()

	t0 := time.Now()
	in, err := generate(w, o.seed)
	if err != nil {
		return nil, err
	}
	e := &env{w: w, in: in, seed: o.seed, seconds: o.seconds, scale: o.scale, tmp: o.tmp, log: stdout}
	fmt.Fprintf(stdout, "wavemark %s seed=%d scale=%s trace=%d workers=%d: %s %dx%dx%d, %d steps, %s\n",
		w.Name, o.seed, o.scale, o.trace, workers(), w.Problem.Physics, w.Problem.N, w.Problem.N, w.Problem.N, w.Problem.Steps, w.Sched)

	var res *result
	// The result line carries BENCHMARK.json's metrics of the pass; the table
	// and the document also hold the workload's scoped end-to-end metrics.
	defs, onLine, kind := endToEndOn(w), endToEnd, "end_to_end"
	switch {
	case o.trace == 1:
		defs, onLine, kind = perLayer, perLayer, "per_layer"
		res, err = runTraced(e, table)
	case w.Kind == kindShot:
		res, err = runShot(e)
	case w.Kind == kindSurvey:
		res, err = runSurvey(e)
	default:
		res, err = runServe(e)
	}
	if err != nil {
		return nil, err
	}

	wr := &workloadResult{
		Workload: w, Trace: o.trace == 1,
		Attempted: res.attempted, Failed: res.failed, RecordFNV: fmt.Sprintf("%016x", res.recordFNV),
		ElapsedS: time.Since(t0).Seconds(), Metrics: stats(defs, kind, res.samples), Notes: res.notes,
	}
	line := resultLine{Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	lineNames := map[string]bool{}
	for _, d := range onLine {
		lineNames[d.Name] = true
	}
	for i, m := range wr.Metrics {
		if m.N == 0 || math.IsNaN(m.Median) || math.IsInf(m.Median, 0) {
			// Not a number the result line can carry; the run is not correct.
			wr.Notes = append(wr.Notes, fmt.Sprintf("metric %s was not measured (n=%d, median %v)", m.Name, m.N, m.Median))
			wr.Metrics[i] = metricStat{Name: m.Name, Unit: m.Unit, Better: m.Better, Kind: m.Kind, Bound: m.Bound, Floor: m.Floor}
			res.failed++
			continue
		}
		if lineNames[m.Name] {
			line.Metrics[m.Name] = metricValue{Value: m.Median, Unit: m.Unit}
		}
	}
	wr.Failed, line.Failed = res.failed, res.failed
	wr.Correct = res.failed == 0 && res.attempted > 0
	line.Correct = wr.Correct

	printMetrics(stdout, wr)
	for _, n := range wr.Notes {
		fmt.Fprintln(stdout, "  note:", n)
	}
	fmt.Fprintf(stdout, "  verified %d operations, %d failed, record_fnv=%s, %.1fs\n", wr.Attempted, wr.Failed, wr.RecordFNV, wr.ElapsedS)
	if o.traceOut != "" && e.rec != nil {
		if err := writeFile(o.traceOut, func(f io.Writer) error { return writeChrome(f, w.Name, e.rec.snapshot()) }); err != nil {
			return nil, err
		}
	}
	if o.jsonPath != "" {
		if err := writeFile(o.jsonPath, func(f io.Writer) error { return json.NewEncoder(f).Encode(wr) }); err != nil {
			return nil, err
		}
	}
	last, err := json.Marshal(line)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(stdout, "%s\n", last)
	return wr, nil
}

// printMetrics prints every metric by name with unit, sample count, median
// and quartiles.
func printMetrics(w io.Writer, wr *workloadResult) {
	fmt.Fprintf(w, "  %-40s %-8s %4s %14s %14s %14s\n", "metric", "unit", "n", "median", "q1", "q3")
	for _, m := range wr.Metrics {
		fmt.Fprintf(w, "  %-40s %-8s %4d %14.6g %14.6g %14.6g\n", m.Name, m.Unit, m.N, m.Median, m.Q1, m.Q3)
	}
}

// writeFile creates path (and its directory) and checks every step of the
// write.
func writeFile(path string, write func(io.Writer) error) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// runAll runs every workload, each run in a fresh child process so that
// peak memory, the garbage collector's state and the par pool do not leak
// between workloads: the untraced pass, then with -trace 1 the traced pass.
// It writes one result document per pass.
func runAll(o options, stdout, stderr io.Writer) (bool, error) {
	table, err := workloadTable(o.scale)
	if err != nil {
		return false, err
	}
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	dir := filepath.Dir(o.out)
	ok := true
	for trace := 0; trace <= o.trace; trace++ {
		doc := document{Kind: docKind, Version: docVersion, Host: readHost(), Seed: o.seed, Scale: o.scale, Seconds: o.seconds}
		start := time.Now()
		for _, w := range table {
			frag := filepath.Join(dir, fmt.Sprintf(".%s.%d.json", w.Name, os.Getpid()))
			args := []string{"-workload", w.Name, "-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds),
				"-trace", fmt.Sprint(trace), "-scale", o.scale, "-tmp", o.tmp, "-json", frag}
			if trace == 1 {
				args = append(args, "-trace-out", filepath.Join(dir, "trace-"+w.Name+".json"))
			}
			cmd := exec.Command(self, args...)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			runErr := cmd.Run()
			wr, err := readFragment(frag)
			os.Remove(frag)
			if err != nil {
				return false, fmt.Errorf("%s: %v (child: %v)", w.Name, err, runErr)
			}
			ok = ok && wr.Correct
			doc.Workloads = append(doc.Workloads, *wr)
		}
		path := o.out
		if trace == 1 {
			path = strings.TrimSuffix(o.out, ".json") + "-traced.json"
		}
		err := writeFile(path, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", " ")
			return enc.Encode(doc)
		})
		if err != nil {
			return false, err
		}
		fmt.Fprintf(stdout, "\n%s pass: %d workloads in %.0fs, document %s\n",
			map[int]string{0: "untraced", 1: "traced"}[trace], len(doc.Workloads), time.Since(start).Seconds(), path)
		for i := range doc.Workloads {
			wr := &doc.Workloads[i]
			fmt.Fprintf(stdout, "%s: correct=%v attempted=%d failed=%d record_fnv=%s\n", wr.Workload.Name, wr.Correct, wr.Attempted, wr.Failed, wr.RecordFNV)
			printMetrics(stdout, wr)
		}
	}
	return ok, nil
}

func readFragment(path string) (*workloadResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	wr := &workloadResult{}
	return wr, json.Unmarshal(b, wr)
}
