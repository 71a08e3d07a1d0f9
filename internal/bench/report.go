package bench

import (
	"fmt"
	"strings"

	"wavetile/internal/cachesim"
	"wavetile/internal/hostcal"
	"wavetile/internal/model"
	"wavetile/internal/obs"
	"wavetile/internal/roofline"
	"wavetile/internal/tiling"
)

// ---------------------------------------------------------------------------
// Roofline attribution: joining a measured run against the cache-simulated
// prediction for the same (physics, order, schedule, config) point.

// MachineByName resolves a *preset* roofline machine model by
// (case-insensitive) name. ResolveMachine is the host-aware superset.
func MachineByName(name string) (roofline.Machine, error) {
	switch strings.ToLower(name) {
	case "", "broadwell":
		return roofline.Broadwell(), nil
	case "skylake":
		return roofline.Skylake(), nil
	}
	return roofline.Machine{}, fmt.Errorf("bench: unknown roofline machine %q (want broadwell or skylake)", name)
}

// PresetMarker prefixes the machine name when attribution falls back to a
// paper preset because no measured host fingerprint was available — so a
// report reader can always tell a measured machine ("host/…") from an
// assumed one ("preset/…").
const PresetMarker = "preset/"

// ResolveMachine turns a machine selector into a calibrated roofline model:
//
//   - "" (auto): the measured host fingerprint when a valid one is found at
//     calPath (or hostcal.DefaultPath()), with its fitted calibration if
//     present; otherwise the Broadwell preset renamed "preset/broadwell" so
//     the fallback is explicit in every report.
//   - "host": the measured fingerprint, required — a missing, mismatched or
//     stale fingerprint is a surfaced error, never a silent preset.
//   - "broadwell" / "skylake": the paper presets, by name.
//
// calPath "" means hostcal.DefaultPath().
func ResolveMachine(name, calPath string) (roofline.Calibrated, error) {
	if calPath == "" {
		calPath = hostcal.DefaultPath()
	}
	switch strings.ToLower(name) {
	case "", "auto":
		if cal, err := hostcal.LoadChecked(calPath); err == nil {
			return roofline.CalibratedFromCal(cal), nil
		}
		m := roofline.Broadwell()
		m.Name = PresetMarker + "broadwell"
		return roofline.Calibrated{Machine: m, BWEff: 1}, nil
	case "host":
		cal, err := hostcal.LoadChecked(calPath)
		if err != nil {
			return roofline.Calibrated{}, fmt.Errorf("bench: -machine host needs a valid fingerprint (run `make hostcal`): %w", err)
		}
		return roofline.CalibratedFromCal(cal), nil
	}
	m, err := MachineByName(name)
	if err != nil {
		return roofline.Calibrated{}, err
	}
	return roofline.Calibrated{Machine: m, BWEff: 1}, nil
}

// AttributeOptions size the attribution replay. The defaults are smaller
// than SimOptions' figure-grade trace grid: attribution runs inline after a
// measurement (a -report flag, a post-Run call), so it trades a little
// traffic-ratio fidelity for a sub-second replay.
type AttributeOptions struct {
	// Machine selects the roofline model: "" (auto: measured host
	// fingerprint when available, else the marked Broadwell preset),
	// "host", "broadwell" or "skylake" — see ResolveMachine.
	Machine string
	// HostcalPath overrides the fingerprint location ("" →
	// hostcal.DefaultPath()).
	HostcalPath string
	TraceN      int // trace grid edge (default 64)
	TraceNt     int // traced timesteps (default 4)
}

func (o *AttributeOptions) defaults() {
	if o.TraceN == 0 {
		o.TraceN = 64
	}
	if o.TraceNt == 0 {
		o.TraceNt = 4
	}
}

// Attribute replays the schedule of one measured run on a reduced trace
// grid through the machine's cache hierarchy, applies the roofline model,
// and joins the prediction with the measurement:
//
//   - AchievedFraction = measured GPts/s ÷ model-predicted GPts/s, the
//     headline "how close to the paper's model did this run get" number;
//   - ModelDRAMBytes = the simulated DRAM traffic scaled from the trace
//     grid to the run's point count;
//   - EffectiveDRAMGBs = that traffic moved at the measured throughput,
//     i.e. the run's effective memory bandwidth under the model.
//
// schedule is a Result/RunInfo schedule string: "spatial",
// "spatial-unfused", "spatial+snapshots", "wtb" or "wtb-pipelined". The
// pipelined kind is replayed through the serial WTB drain — it visits the
// identical space-time tiles (the trace sink is not concurrency-safe), so
// the traffic is the same. cfg is consulted for the WTB schedules only
// and is clamped to the trace grid (TT to TraceNt, tiles into
// [MinTile, TraceN]).
//
// runPoints and measuredGPts come from the measurement being attributed.
func Attribute(spec Spec, schedule string, cfg tiling.Config, measuredGPts float64, runPoints int64, o AttributeOptions) (*obs.RooflineAttribution, error) {
	o.defaults()
	cal, err := ResolveMachine(o.Machine, o.HostcalPath)
	if err != nil {
		return nil, err
	}
	m := cal.Machine

	sh, err := traceShape(spec, SimOptions{TraceN: o.TraceN, TraceNt: o.TraceNt})
	if err != nil {
		return nil, err
	}
	h := cachesim.New(m.Cache)
	p, err := traceProp(spec.Model, sh, h)
	if err != nil {
		return nil, err
	}

	switch schedule {
	case "spatial", "spatial+snapshots":
		tiling.RunSpatial(p, 0, 0, true)
	case "spatial-unfused":
		tiling.RunSpatial(p, 0, 0, false)
	case "wtb", "wtb-pipelined":
		if err := tiling.RunWTB(p, clampConfig(cfg, p.MinTile(), o.TraceN, o.TraceNt)); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("bench: cannot attribute schedule %q", schedule)
	}
	traffic := h.Snapshot(spec.Name())

	tracePoints := float64(o.TraceN) * float64(o.TraceN) * float64(o.TraceN) * float64(o.TraceNt)
	flops := float64(flopsPerPoint(spec.Model, spec.SO)) * tracePoints
	pred := cal.Predict(flops, tracePoints, traffic)

	att := &obs.RooflineAttribution{
		Machine:            m.Name,
		TraceN:             o.TraceN,
		TraceNt:            o.TraceNt,
		PredictedGPointsPS: pred.GPointsPS,
		PredictedBound:     pred.Bound,
		MachineDRAMGBs:     m.BWGBs[len(m.BWGBs)-1],
	}
	// Record the calibration behind the prediction when it deviates from
	// the identity model.
	if cal.BWEff > 0 && cal.BWEff != 1 {
		att.BWEff = cal.BWEff
	}
	if cal.OverheadNSPerPoint > 0 {
		att.OverheadNSPerPoint = cal.OverheadNSPerPoint
	}
	if pred.GPointsPS > 0 {
		att.AchievedFraction = measuredGPts / pred.GPointsPS
	}
	bytesPerPoint := float64(traffic.DRAMBytes) / tracePoints
	att.ModelDRAMBytes = uint64(bytesPerPoint * float64(runPoints))
	// GB/s = (bytes/point) × (1e9 points/s) / 1e9 — the factors cancel.
	att.EffectiveDRAMGBs = bytesPerPoint * measuredGPts
	if att.MachineDRAMGBs > 0 {
		att.BandwidthFraction = att.EffectiveDRAMGBs / att.MachineDRAMGBs
	}
	return att, nil
}

// clampConfig maps a run-scale WTB configuration onto the trace grid so the
// replay keeps the schedule's character (deep time tile, wide space tile)
// while staying legal at the reduced size.
func clampConfig(cfg tiling.Config, minTile, traceN, traceNt int) tiling.Config {
	c := cfg
	if c.TT < 1 {
		c.TT = traceNt
	}
	if c.TT > traceNt {
		c.TT = traceNt
	}
	clampTile := func(t int) int {
		if t < minTile {
			return minTile
		}
		if t > traceN {
			return traceN
		}
		return t
	}
	c.TileX, c.TileY = clampTile(c.TileX), clampTile(c.TileY)
	if c.BlockX < 1 {
		c.BlockX = 8
	}
	if c.BlockY < 1 {
		c.BlockY = 8
	}
	return c
}

// TimeAxis computes the spec's CFL time axis (dt, nt) without instantiating
// wavefields, for report writers that have a WallRow but not a built
// Problem.
func (s Spec) TimeAxis() (float64, int, error) {
	if s.NBL == 0 {
		s.NBL = 10
	}
	h := s.spacing()
	g := model.Geometry{Nx: s.N, Ny: s.N, Nz: s.N, Hx: h, Hy: h, Hz: h, NBL: s.NBL}
	const vmax = 3500
	var dt float64
	switch s.Model {
	case "acoustic":
		dt = g.CriticalDtAcoustic(s.SO, vmax, model.DefaultCFL)
	case "tti":
		dt = g.CriticalDtTTI(s.SO, vmax, 0.24, model.DefaultCFL)
	case "elastic":
		dt = g.CriticalDtElastic(s.SO, vmax, model.DefaultCFL)
	default:
		return 0, 0, fmt.Errorf("bench: unknown model %q", s.Model)
	}
	if s.Steps > 0 {
		return dt, s.Steps, nil
	}
	g.SetTime(0.512, dt)
	return g.Dt, g.Nt, nil
}

// WallReports converts Fig9Wall rows into run reports — one per (spec,
// schedule) measurement, each joined against the roofline model — so a
// bench sweep leaves the same machine-readable artifacts as a single
// attributed run.
func WallReports(rows []WallRow, o AttributeOptions) ([]*obs.Report, error) {
	var out []*obs.Report
	for _, row := range rows {
		dt, nt, err := row.Spec.TimeAxis()
		if err != nil {
			return nil, err
		}
		points := int64(row.Spec.N) * int64(row.Spec.N) * int64(row.Spec.N) * int64(nt)
		for _, meas := range []struct {
			schedule string
			gpts     float64
			cfg      tiling.Config
		}{
			{"spatial-unfused", row.SpatialGP, tiling.Config{}},
			{"wtb", row.WTBGP, row.Best},
			{"wtb-pipelined", row.PipeGP, row.Best},
		} {
			if meas.gpts == 0 {
				continue
			}
			rep := obs.NewReport()
			rep.Run = obs.RunInfo{
				Physics:    row.Spec.Model,
				SpaceOrder: row.Spec.SO,
				Shape:      [3]int{row.Spec.N, row.Spec.N, row.Spec.N},
				Spacing:    [3]float64{row.Spec.spacing(), row.Spec.spacing(), row.Spec.spacing()},
				Steps:      nt,
				DtSeconds:  dt,
				Schedule:   meas.schedule,
				Sources:    max(row.Spec.NSrc, 1),
				Receivers:  row.Spec.NRec,
			}
			if meas.schedule != "spatial-unfused" {
				rep.Run.Config = meas.cfg.String()
			}
			rep.Points = points
			rep.GPointsPerSec = meas.gpts
			if meas.gpts > 0 {
				rep.ElapsedNS = int64(float64(points) / (meas.gpts * 1e9) * 1e9)
			}
			att, err := Attribute(row.Spec, meas.schedule, meas.cfg, meas.gpts, points, o)
			if err != nil {
				return nil, err
			}
			rep.Roofline = att
			out = append(out, rep)
		}
	}
	return out, nil
}
