package wavesim

import (
	"fmt"

	"wavetile/internal/bench"
	"wavetile/internal/obs"
	"wavetile/internal/par"
	"wavetile/internal/tiling"
)

// ReportOptions configure Simulation.Report.
type ReportOptions struct {
	// Machine selects the roofline machine model the attribution is computed
	// against: "" (auto: the measured host fingerprint when `make hostcal`
	// has produced a valid one, else the Broadwell preset explicitly marked
	// "preset/broadwell"), "host" (fingerprint required), "broadwell" or
	// "skylake".
	Machine string
	// HostcalPath overrides the host-fingerprint location ("" →
	// $WAVETILE_HOSTCAL or ~/.cache/wavesim/hostcal.json).
	HostcalPath string
	// TraceN / TraceNt size the reduced cache-simulation replay (defaults
	// 64 / 4). Larger grids sharpen the traffic estimate at replay cost.
	TraceN, TraceNt int
	// SkipRoofline omits the attribution join — the report then carries
	// config, host and measurements only, and never runs the cache replay.
	SkipRoofline bool
}

// Report assembles the machine-readable run report for a completed Run:
// the simulation's configuration, the host fingerprint, the result's
// measurements (with phase breakdown and counters when observability was
// on), and — unless opted out — the roofline attribution joining the
// measured throughput against the paper's cache-simulated performance
// model for the same schedule.
func (s *Simulation) Report(res *Result, o ReportOptions) (*obs.Report, error) {
	if res == nil {
		return nil, fmt.Errorf("wavesim: Report needs a Run result")
	}
	rep := obs.NewReport()
	rep.Host.Workers = par.Workers
	rep.Run = obs.RunInfo{
		Physics:    s.opts.Physics.String(),
		SpaceOrder: s.opts.SpaceOrder,
		Shape:      s.opts.Shape,
		Spacing:    s.opts.Spacing,
		Steps:      s.geom.Nt,
		DtSeconds:  s.geom.Dt,
		Schedule:   res.Schedule,
		Kernel:     res.Kernel,
		Sources:    len(s.opts.Sources),
		Receivers:  len(s.opts.Receivers),
	}
	rep.ElapsedNS = res.Elapsed.Nanoseconds()
	rep.Points = res.Points
	rep.GPointsPerSec = res.GPointsPerSec
	if res.Phases != nil {
		rep.PhasesNS = make(map[string]int64, len(res.Phases))
		for k, v := range res.Phases {
			rep.PhasesNS[k] = v.Nanoseconds()
		}
	}
	rep.Counters = res.Counters

	schedule, cfg := attributionSchedule(res.sched)
	if cfg.TT > 0 {
		rep.Run.Config = cfg.String()
	}
	if o.SkipRoofline {
		return rep, nil
	}
	spec := bench.Spec{
		Model: s.opts.Physics.String(),
		SO:    s.opts.SpaceOrder,
		N:     s.opts.Shape[0],
		NBL:   s.opts.NBL,
		Steps: s.geom.Nt,
		NSrc:  len(s.opts.Sources),
		NRec:  len(s.opts.Receivers),
	}
	if spec.NSrc > 1 {
		spec.SrcLayout = "dense"
	}
	att, err := bench.Attribute(spec, schedule, cfg, res.GPointsPerSec, res.Points,
		bench.AttributeOptions{Machine: o.Machine, HostcalPath: o.HostcalPath, TraceN: o.TraceN, TraceNt: o.TraceNt})
	if err != nil {
		return nil, fmt.Errorf("wavesim: roofline attribution: %w", err)
	}
	rep.Roofline = att
	return rep, nil
}

// attributionSchedule maps a Result's schedule value onto the replayable
// schedule string and WTB configuration bench.Attribute understands.
func attributionSchedule(sched Schedule) (string, tiling.Config) {
	switch c := sched.(type) {
	case Spatial:
		if c.Unfused {
			return "spatial-unfused", tiling.Config{}
		}
		return "spatial", tiling.Config{}
	case WTB:
		return "wtb", wtbConfig(c)
	case WTBPipelined:
		return "wtb-pipelined", wtbConfig(WTB(c))
	}
	// RunWithSnapshots results and future schedules replay as plain fused
	// spatial — the closest traffic shape.
	return "spatial", tiling.Config{}
}
