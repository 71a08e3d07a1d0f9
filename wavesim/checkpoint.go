package wavesim

import (
	"context"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"wavetile/internal/batch"
	"wavetile/internal/grid"
	"wavetile/internal/obs"
	"wavetile/internal/verify"
)

// Checkpoint/resume for survey shots.
//
// A shot checkpoint captures the propagator's full wavefield state at a
// time-tile boundary plus the receiver rows recorded so far. Restoring the
// fields and re-running the remaining range through the same schedule is
// bitwise identical to never having stopped: the executor (tiling.Run)
// chunks at multiples of the time-tile depth (the exact tile sequence of
// an uninterrupted run), and source injection and receiver
// sampling index by absolute timestep, so they are oblivious to where the
// run was cut. This is the same replay primitive the verify harness uses
// for first-divergence diagnostics, promoted to a public resume API for
// the simulation service.

// ErrCheckpoint tags malformed or mismatched checkpoints.
var ErrCheckpoint = fmt.Errorf("wavesim: invalid checkpoint")

// ShotCheckpoint is the resumable state of one shot at a time-tile
// boundary: all steps in [0, T) are complete, none after. The wavefield
// payload is deep-copied at capture, so a checkpoint stays valid after the
// simulation that produced it moves on.
type ShotCheckpoint struct {
	Shot int // shot index within the survey
	T    int // completed timesteps

	fields    map[string]*grid.Grid // full padded wavefield buffers
	receivers [][]float32           // receiver rows [0, T), nil without receivers
}

const shotCkptMagic = "WVSHCK1\n"

// Encode writes the checkpoint in a stable binary format: a small header
// (shot, T, receiver rows with a CRC) followed by the wavefields in the
// verify snapshot codec. Float payloads round-trip bitwise.
func (ck *ShotCheckpoint) Encode(w io.Writer) error {
	if _, err := io.WriteString(w, shotCkptMagic); err != nil {
		return err
	}
	hdr := []int64{int64(ck.Shot), int64(ck.T)}
	if err := binary.Write(w, binary.LittleEndian, hdr); err != nil {
		return err
	}
	nrows := len(ck.receivers)
	ncols := 0
	if nrows > 0 {
		ncols = len(ck.receivers[0])
	}
	if err := binary.Write(w, binary.LittleEndian, [2]uint32{uint32(nrows), uint32(ncols)}); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	var scratch [4]byte
	for _, row := range ck.receivers {
		if len(row) != ncols {
			return fmt.Errorf("%w: ragged receiver rows", ErrCheckpoint)
		}
		for _, v := range row {
			binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(v))
			crc.Write(scratch[:])
		}
	}
	if err := binary.Write(w, binary.LittleEndian, crc.Sum32()); err != nil {
		return err
	}
	for _, row := range ck.receivers {
		for _, v := range row {
			binary.LittleEndian.PutUint32(scratch[:], math.Float32bits(v))
			if _, err := w.Write(scratch[:]); err != nil {
				return err
			}
		}
	}
	return verify.WriteSnapshot(w, ck.fields)
}

// DecodeShotCheckpoint reads a checkpoint written by Encode. Corruption —
// truncation, bit flips in receiver rows or wavefields — is detected and
// reported rather than resumed from.
func DecodeShotCheckpoint(r io.Reader) (*ShotCheckpoint, error) {
	var magic [len(shotCkptMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("%w: magic: %v", ErrCheckpoint, err)
	}
	if string(magic[:]) != shotCkptMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCheckpoint, magic)
	}
	var hdr [2]int64
	if err := binary.Read(r, binary.LittleEndian, &hdr); err != nil {
		return nil, fmt.Errorf("%w: header: %v", ErrCheckpoint, err)
	}
	var dims [2]uint32
	if err := binary.Read(r, binary.LittleEndian, &dims); err != nil {
		return nil, fmt.Errorf("%w: receiver dims: %v", ErrCheckpoint, err)
	}
	nrows, ncols := int(dims[0]), int(dims[1])
	if hdr[0] < 0 || hdr[1] < 0 || nrows > 1<<24 || ncols > 1<<20 ||
		(nrows > 0 && int64(nrows)*int64(ncols) > 1<<30) {
		return nil, fmt.Errorf("%w: implausible header shot=%d t=%d rows=%d cols=%d",
			ErrCheckpoint, hdr[0], hdr[1], nrows, ncols)
	}
	var wantCRC uint32
	if err := binary.Read(r, binary.LittleEndian, &wantCRC); err != nil {
		return nil, fmt.Errorf("%w: checksum: %v", ErrCheckpoint, err)
	}
	ck := &ShotCheckpoint{Shot: int(hdr[0]), T: int(hdr[1])}
	crc := crc32.NewIEEE()
	if nrows > 0 {
		ck.receivers = make([][]float32, nrows)
		buf := make([]byte, 4*ncols)
		for t := range ck.receivers {
			if _, err := io.ReadFull(r, buf); err != nil {
				return nil, fmt.Errorf("%w: receiver row %d: %v", ErrCheckpoint, t, err)
			}
			crc.Write(buf)
			row := make([]float32, ncols)
			for i := range row {
				row[i] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*i:]))
			}
			ck.receivers[t] = row
		}
	}
	if crc.Sum32() != wantCRC {
		return nil, fmt.Errorf("%w: receiver rows checksum mismatch", ErrCheckpoint)
	}
	fields, err := verify.ReadSnapshot(r)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCheckpoint, err)
	}
	ck.fields = fields
	return ck, nil
}

// ResumeOptions configures a resumable survey run.
type ResumeOptions struct {
	// Completed marks shots that already finished in a previous run; they
	// are skipped entirely (their SurveyResult slot stays nil — the caller
	// kept their records when they first completed).
	Completed map[int]bool
	// Checkpoints holds mid-flight state from a previous run, keyed by
	// shot; those shots restart from their checkpoint's T instead of 0.
	Checkpoints map[int]*ShotCheckpoint
	// EveryTiles is the checkpoint cadence in time tiles (a Spatial
	// schedule counts single timesteps). 0 disables periodic checkpoints.
	EveryTiles int
	// OnCheckpoint receives each periodic checkpoint, from concurrent
	// lanes. An error fails the shot. The checkpoint owns its buffers.
	OnCheckpoint func(*ShotCheckpoint) error
	// OnShot, when non-nil, overrides SurveyOptions.OnShot for this run.
	OnShot func(shot int, res *Result)
}

// fields exposes the propagator's live wavefield buffers by name.
func (s *Simulation) fields() map[string]*grid.Grid {
	if f, ok := s.prop.(interface{ Fields() map[string]*grid.Grid }); ok {
		return f.Fields()
	}
	return nil
}

// captureCheckpoint deep-copies the simulation's state at boundary t.
// prefix holds receiver rows carried over from the checkpoint this run
// itself resumed from (nil on a fresh run).
func captureCheckpoint(sim *Simulation, shot, t int, prefix [][]float32) (*ShotCheckpoint, error) {
	live := sim.fields()
	if live == nil {
		return nil, fmt.Errorf("%w: propagator exposes no fields", ErrCheckpoint)
	}
	fields := make(map[string]*grid.Grid, len(live))
	for name, g := range live {
		fields[name] = g.Clone()
	}
	rec, err := sim.ops.Receivers()
	if err != nil {
		return nil, err
	}
	var rows [][]float32
	if rec != nil {
		rows = rec[:min(t, len(rec))]
		for i := range prefix {
			rows[i] = prefix[i]
		}
	}
	return &ShotCheckpoint{Shot: shot, T: t, fields: fields, receivers: rows}, nil
}

// restoreCheckpoint validates ck against sim and sched, then overwrites
// the live wavefields with the checkpointed ones.
func (s *Simulation) restoreCheckpoint(ck *ShotCheckpoint, sched Schedule) error {
	if ck.T < 0 || ck.T >= s.geom.Nt {
		return fmt.Errorf("%w: T=%d outside the %d-step time axis", ErrCheckpoint, ck.T, s.geom.Nt)
	}
	if d := tileDepth(sched); ck.T%d != 0 {
		return fmt.Errorf("%w: T=%d is not a multiple of the schedule's time-tile depth %d", ErrCheckpoint, ck.T, d)
	}
	live := s.fields()
	if len(live) != len(ck.fields) {
		return fmt.Errorf("%w: %d fields for a %d-field propagator", ErrCheckpoint, len(ck.fields), len(live))
	}
	for name, g := range live {
		saved, ok := ck.fields[name]
		if !ok {
			return fmt.Errorf("%w: missing field %q", ErrCheckpoint, name)
		}
		if !g.SameShape(saved) {
			return fmt.Errorf("%w: field %q shape mismatch", ErrCheckpoint, name)
		}
	}
	for name, g := range live {
		g.CopyFrom(ck.fields[name])
	}
	return nil
}

// RunResumable executes the survey with cancellation and checkpoint/resume
// semantics: shots marked Completed are skipped, shots with a Checkpoint
// restart from its boundary, and every running shot emits a checkpoint
// each EveryTiles time tiles. It is the one survey driver — Run and
// RunContext are its zero-ResumeOptions case. A shot that resumes from a
// checkpoint produces receiver records bitwise identical to an
// uninterrupted run under the same schedule (asserted by
// TestResumeBitwiseIdentical and, end-to-end over HTTP, by the serve
// fault-injection tests).
func (sv *Survey) RunResumable(ctx context.Context, sched Schedule, ro ResumeOptions) (*SurveyResult, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	hits0, misses0 := sv.pool.Stats()
	out := make([]*Result, len(sv.shots))
	bres, err := batch.RunContext(ctx, batch.Config{
		Shots:          len(sv.shots),
		Concurrency:    sv.opts.Concurrency,
		MaxConcurrency: sv.opts.MaxConcurrency,
		ProbeShots:     sv.opts.ProbeShots,
	}, batch.Funcs{
		Precompute: sv.precomputeShot,
		NewLane: func(lane int) (batch.Lane, error) {
			return &surveyLane{ctx: ctx, sv: sv, sim: sv.fork(), sched: sched, ro: ro, out: out}, nil
		},
		CloseLane: func(l batch.Lane) { sv.release(l.(*surveyLane).sim) },
	})
	if err != nil {
		return nil, err
	}
	hits1, misses1 := sv.pool.Stats()
	res := &SurveyResult{
		Shots:       out,
		Elapsed:     bres.Elapsed,
		ShotsPerSec: bres.ShotsPerSec,
		Concurrency: bres.Concurrency,
		Precompute:  bres.Precompute,
		PoolHits:    hits1 - hits0,
		PoolMisses:  misses1 - misses0,
		Probes:      bres.Probes,
	}
	if reg := obs.Active(); reg != nil {
		reg.Counter("survey_pool_hits").Add(res.PoolHits)
		reg.Counter("survey_pool_misses").Add(res.PoolMisses)
	}
	return res, nil
}

// PoolBalance reports the survey grid pool's cumulative Get/Put counts.
// After any complete run — including a cancelled or failed one — the two
// are equal: every lane's wavefields go back to the pool on close.
func (sv *Survey) PoolBalance() (gets, puts int64) { return sv.pool.Balance() }
