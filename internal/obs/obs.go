// Package obs is the observability layer of the repository: atomic
// counters, gauges and duration histograms (labeled series via SeriesName)
// behind a Registry snapshot API, per-phase wall-clock attribution for the
// hot paths (stencil update, fused injection, fused sampling, unfused
// sparse operators), a tile-schedule tracer exporting Chrome trace_event
// JSON, a fixed-size flight recorder for bounded-memory span history on
// long runs, structured progress logging via log/slog, machine-readable
// roofline-attributed run reports (Report), and an opt-in debug HTTP server
// exposing pprof, expvar and a Prometheus /metrics endpoint.
//
// Observability is off by default and near-zero-overhead when off: every
// instrumentation site begins with a single atomic pointer load (Active)
// and a nil check, and takes no clock readings, allocations or locks on the
// disabled path. Enabling is done by installing a Registry with SetActive
// (or Swap); the schedules in internal/tiling and the propagators in
// internal/wave then feed it.
//
// The registry is process-global (like runtime/trace): two simultaneously
// observed simulations in one process share — and therefore mix — one
// registry. Snapshot deltas (Snapshot.DeltaFrom) recover per-run numbers
// for the common sequential case.
package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Phase identifies one instrumented work category of a propagation run.
type Phase uint8

// The measured phases. PhaseStencil is the finite-difference grid update;
// PhaseInject and PhaseSample are the fused sparse source injection and
// receiver sampling (Listings 4–5 of the paper); PhaseSparse is the unfused
// Listing-1 baseline sparse pass applied between timesteps.
const (
	PhaseStencil Phase = iota
	PhaseInject
	PhaseSample
	PhaseSparse
	NumPhases
)

func (p Phase) String() string {
	switch p {
	case PhaseStencil:
		return "stencil"
	case PhaseInject:
		return "inject"
	case PhaseSample:
		return "sample"
	case PhaseSparse:
		return "sparse"
	}
	return "unknown"
}

// PhaseOverhead is the snapshot key under which run drivers report
// unattributed schedule time: wall time minus the measured phases
// (fork/join, tile-loop bookkeeping, skipped-tile scanning).
const PhaseOverhead = "overhead"

// active is the process-global registry; nil means observability is off.
var active atomic.Pointer[Registry]

// Active returns the installed registry, or nil when observability is off.
// It is the single check every instrumentation site performs.
func Active() *Registry { return active.Load() }

// SetActive installs r as the process-global registry (nil disables).
func SetActive(r *Registry) { active.Store(r) }

// Swap installs r and returns a func restoring the previous registry.
func Swap(r *Registry) func() {
	prev := active.Swap(r)
	return func() { active.Store(prev) }
}

// workerSlot accumulates one worker's busy nanoseconds per phase. Slots are
// padded to a cache line so concurrent workers don't false-share.
type workerSlot struct {
	busy [NumPhases]atomic.Int64
	_    [(64 - (int(NumPhases)*8)%64) % 64]byte
}

// Registry collects every observable of a run. All methods are safe for
// concurrent use; the hot-path ones (phase and worker accumulation, counter
// Add) are single atomic operations.
type Registry struct {
	// First-class hot counters, updated once per propagator Step.
	steps  atomic.Int64
	points atomic.Int64

	// Wall time attributed to each phase (see Section).
	phaseWall [NumPhases]atomic.Int64

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram

	// Per-worker busy time, indexed by the par worker id (clamped into
	// range; ids beyond the preallocated slots share the last one).
	workers []workerSlot

	tracer atomic.Pointer[Tracer]
	flight atomic.Pointer[Flight]
	prog   atomic.Pointer[progress]
}

// NewRegistry returns an empty registry sized for the host's parallelism.
func NewRegistry() *Registry {
	n := runtime.GOMAXPROCS(0)
	if n < 8 {
		n = 8
	}
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		workers:  make([]workerSlot, n),
	}
}

// Counter returns the named counter, creating it on first use. Callers on
// hot paths should look the counter up once and hold the pointer.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named duration histogram, creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// AddStep records one propagator Step invocation of n grid-point updates.
func (r *Registry) AddStep(points int64) {
	r.steps.Add(1)
	r.points.Add(points)
}

// Points returns the cumulative grid-point updates recorded by AddStep.
func (r *Registry) Points() int64 { return r.points.Load() }

// AddPhase attributes d of wall time directly to phase p — used by run
// drivers for phases they time sequentially (e.g. the unfused sparse pass).
func (r *Registry) AddPhase(p Phase, d time.Duration) {
	if d > 0 {
		r.phaseWall[p].Add(d.Nanoseconds())
	}
}

// PhaseWalls returns the wall nanoseconds attributed to each phase so far.
func (r *Registry) PhaseWalls() [NumPhases]int64 {
	var w [NumPhases]int64
	for p := range w {
		w[p] = r.phaseWall[p].Load()
	}
	return w
}

// addWorkerBusy charges ns of busy time to phase p on worker w.
func (r *Registry) addWorkerBusy(p Phase, w int, ns int64) {
	if w < 0 {
		w = 0
	}
	if w >= len(r.workers) {
		w = len(r.workers) - 1
	}
	r.workers[w].busy[p].Add(ns)
}

// Section attributes the wall time of one parallel region (one propagator
// Step) to phases. Block workers call Observe concurrently, charging their
// busy time per phase; End then distributes the section's *wall* time over
// the phases in proportion to busy time, so that summing phase durations
// across a run reproduces the run's wall clock (±rounding) even though the
// workers' busy totals overlap in real time.
//
// A nil *Section is a valid no-op that reads no clock, so a propagator has
// one Step body: on the disabled path it pays the Active() load in
// SectionStart and a nil check per call below.
type Section struct {
	r      *Registry
	start  time.Time
	blocks *Histogram // "block_ns": one parallel block's whole update
	busy   [NumPhases]atomic.Int64
}

// SectionStart opens a section against the active registry, or returns nil
// (a no-op section) when observability is off.
func SectionStart() *Section {
	r := Active()
	if r == nil {
		return nil
	}
	return &Section{r: r, start: time.Now(), blocks: r.Histogram("block_ns")}
}

// Now reads the clock for a later Observe; the zero time on a no-op
// section.
func (s *Section) Now() time.Time {
	if s == nil {
		return time.Time{}
	}
	return time.Now()
}

// Observe charges the time elapsed since start to phase p on behalf of
// worker w. Safe for concurrent calls with distinct or equal w.
func (s *Section) Observe(p Phase, w int, start time.Time) {
	if s == nil {
		return
	}
	ns := time.Since(start).Nanoseconds()
	if ns <= 0 {
		return
	}
	s.busy[p].Add(ns)
	s.r.addWorkerBusy(p, w, ns)
}

// ObserveBlock feeds the time since start — one parallel block's whole
// update, all phases — to the "block_ns" histogram.
func (s *Section) ObserveBlock(start time.Time) {
	if s == nil {
		return
	}
	s.blocks.Observe(time.Since(start))
}

// End closes the section: it counts one Step of points grid-point updates
// and distributes the section's wall time over the observed phases
// proportionally to busy time. Sections with no observations leave their
// wall time unattributed (it surfaces as PhaseOverhead residual).
func (s *Section) End(points int64) {
	if s == nil {
		return
	}
	s.r.AddStep(points)
	wall := time.Since(s.start).Nanoseconds()
	if wall <= 0 {
		return
	}
	var busy [NumPhases]int64
	var total int64
	for p := range s.busy {
		busy[p] = s.busy[p].Load()
		total += busy[p]
	}
	if total == 0 {
		return
	}
	for p := Phase(0); p < NumPhases; p++ {
		if busy[p] == 0 {
			continue
		}
		share := int64(float64(wall) * float64(busy[p]) / float64(total))
		s.r.phaseWall[p].Add(share)
	}
}
