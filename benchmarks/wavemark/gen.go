package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand"

	"wavetile/internal/serve"
	"wavetile/wavesim"
)

// Ricker wavelet of every source: the peak (1/f0 = 40 ms) falls inside the
// 48-step shots, and the amplitude keeps records far above the propagators'
// flush-to-zero threshold.
const (
	sourceF0  = 25.0
	sourceAmp = 100.0
)

// inputs is everything the program under test receives for one workload,
// generated from the seed alone: off-the-grid coordinates and, for the
// service, complete job specs with their priorities. Shapes come from the
// workload table and do not depend on the seed.
type inputs struct {
	Receivers []wavesim.Coord `json:"receivers"`
	// Shots[i] holds shot i's sources (one shot for a shot workload).
	Shots [][]wavesim.Coord `json:"shots,omitempty"`
	// Specs are the service job bodies of one closed-loop round, as sent.
	Specs []json.RawMessage `json:"specs,omitempty"`
}

// generate draws the inputs of w from seed. The stream is keyed by the
// workload's kind and problem, so adding a workload never shifts another's
// coordinates, and two workloads over one problem — the acoustic pair — get
// identical inputs.
func generate(w workload, seed int64) (inputs, error) {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s %+v", w.Kind, w.Problem)
	r := rand.New(rand.NewSource(seed ^ int64(h.Sum64()>>1)))
	p := w.Problem

	// Points sit at least two cells inside the absorbing layers, which also
	// clears the four-cell margin sinc supports need.
	lo := float64(p.NBL+2) * spacing
	hi := float64(p.N-1-p.NBL-2) * spacing
	uniform := func() float64 { return lo + r.Float64()*(hi-lo) }
	centre := func() float64 { return (lo+hi)/2 + (r.Float64()-0.5)*(hi-lo)*0.2 }

	// Receivers lie at one depth, on a line through the middle of the grid
	// or scattered over the plane. The runs are a few dozen steps, and what
	// has travelled a few dozen cells by then is below the propagators'
	// flush-to-zero threshold (a line 39 cells from the source recorded
	// nothing in 48 steps). So a single source sits two to four cells below
	// that depth, near the middle of the plane or within two cells of the
	// line: whatever the seed, receivers are a few cells away and the record
	// is not zero.
	var in inputs
	zrec := lo + r.Float64()*spacing
	ysrc := centre
	if p.RecPlane {
		for i := 0; i < p.Receivers; i++ {
			in.Receivers = append(in.Receivers, wavesim.Coord{uniform(), uniform(), zrec})
		}
	} else {
		y := centre()
		in.Receivers = wavesim.LineCoords(p.Receivers,
			wavesim.Coord{lo + r.Float64()*spacing, y, zrec}, wavesim.Coord{hi - r.Float64()*spacing, y, zrec})
		ysrc = func() float64 { return y + (r.Float64()-0.5)*4*spacing }
	}
	shot := func() []wavesim.Coord {
		src := make([]wavesim.Coord, p.Sources)
		for i := range src {
			if p.Sinc {
				src[i] = wavesim.Coord{uniform(), uniform(), uniform()}
			} else {
				src[i] = wavesim.Coord{centre(), ysrc(), zrec + (2+2*r.Float64())*spacing}
			}
		}
		return src
	}

	switch w.Kind {
	case kindShot:
		in.Shots = [][]wavesim.Coord{shot()}
	case kindSurvey:
		for i := 0; i < w.Shots; i++ {
			in.Shots = append(in.Shots, shot())
		}
	case kindServe:
		for j := 0; j < w.Jobs; j++ {
			spec := jobSpec(w, in.Receivers)
			spec.Priority = r.Intn(4)
			for s := 0; s < w.Shots; s++ {
				spec.Shots = append(spec.Shots, serve.ShotSpec{Sources: coords3(shot())})
			}
			body, err := json.Marshal(spec)
			if err != nil {
				return inputs{}, err
			}
			in.Specs = append(in.Specs, body)
		}
	}
	return in, nil
}

func coords3(cs []wavesim.Coord) [][3]float64 {
	out := make([][3]float64, len(cs))
	for i, c := range cs {
		out[i] = c
	}
	return out
}

// jobSpec is the sourceless service job of a serve workload.
func jobSpec(w workload, receivers []wavesim.Coord) *serve.JobSpec {
	p := w.Problem
	return &serve.JobSpec{
		Name:       w.Name,
		Physics:    p.Physics,
		SpaceOrder: p.SO,
		Shape:      [3]int{p.N, p.N, p.N},
		Spacing:    [3]float64{spacing, spacing, spacing},
		NBL:        p.NBL,
		Steps:      p.Steps,
		Model:      serve.ModelSpec{Kind: "layered", ZMax: p.zmax(), Values: layers},
		SourceF0:   sourceF0,
		SourceAmp:  sourceAmp,
		Receivers:  coords3(receivers),
		Schedule:   w.Sched.spec(),
	}
}

// options lowers the problem and one shot's sources to the public API's
// configuration, the only thing a shot or survey workload hands wavesim.
func (in inputs) options(p problem, sources []wavesim.Coord) wavesim.Options {
	return wavesim.Options{
		Physics:     p.physics(),
		SpaceOrder:  p.SO,
		Shape:       [3]int{p.N, p.N, p.N},
		Spacing:     [3]float64{spacing, spacing, spacing},
		NBL:         p.NBL,
		Steps:       p.Steps,
		Vp:          wavesim.Layered(p.zmax(), layers...),
		SourceF0:    sourceF0,
		SourceAmp:   sourceAmp,
		Sources:     sources,
		Receivers:   in.Receivers,
		SincSources: p.Sinc,
	}
}

// surveyShots wraps the generated sources as survey shots.
func (in inputs) surveyShots() []wavesim.Shot {
	shots := make([]wavesim.Shot, len(in.Shots))
	for i, src := range in.Shots {
		shots[i] = wavesim.Shot{Sources: src}
	}
	return shots
}
