package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"testing"

	"wavetile/internal/serve"
	"wavetile/wavesim"
)

// marshalInputs renders the generated inputs of every workload at a scale.
func marshalInputs(t *testing.T, scale string, seed int64) map[string][]byte {
	t.Helper()
	table, err := workloadTable(scale)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, w := range table {
		in, err := generate(w, seed)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(in)
		if err != nil {
			t.Fatal(err)
		}
		out[w.Name] = b
	}
	return out
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, scale := range []string{"tiny", "full"} {
		a, b := marshalInputs(t, scale, 7), marshalInputs(t, scale, 7)
		for name := range a {
			if !bytes.Equal(a[name], b[name]) {
				t.Errorf("%s/%s: two generations from seed 7 differ", scale, name)
			}
		}
	}
}

// TestAcousticPairSharesInputs pins the control's premise: the spatial
// workload runs the identical problem, coordinates included.
func TestAcousticPairSharesInputs(t *testing.T) {
	in := marshalInputs(t, "full", 7)
	if !bytes.Equal(in["shot_acoustic_wtb"], in["shot_acoustic_spatial"]) {
		t.Error("shot_acoustic_wtb and shot_acoustic_spatial were generated different inputs")
	}
	if bytes.Equal(in["shot_acoustic_wtb"], in["shot_tti_wtb"]) {
		t.Error("two different problems were generated the same inputs")
	}
}

func TestSeedMovesCoordinatesNotShapes(t *testing.T) {
	table, err := workloadTable("tiny")
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range table {
		a, err := generate(w, 1)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(w, 2)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Receivers) != len(b.Receivers) || len(a.Shots) != len(b.Shots) || len(a.Specs) != len(b.Specs) {
			t.Errorf("%s: the seed changed a shape", w.Name)
		}
		if len(a.Receivers) != w.Problem.Receivers {
			t.Errorf("%s: %d receivers, the table says %d", w.Name, len(a.Receivers), w.Problem.Receivers)
		}
		for i := range a.Shots {
			if len(a.Shots[i]) != w.Problem.Sources || len(b.Shots[i]) != w.Problem.Sources {
				t.Errorf("%s shot %d: source count differs from the table's %d", w.Name, i, w.Problem.Sources)
			}
		}
		if a.Receivers[0] == b.Receivers[0] {
			t.Errorf("%s: seeds 1 and 2 drew the same first receiver %v", w.Name, a.Receivers[0])
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if bytes.Equal(ja, jb) {
			t.Errorf("%s: seeds 1 and 2 generated identical inputs", w.Name)
		}
	}
}

// TestSingleSourceNearReceivers pins what keeps a record from being all
// zero whatever the seed: every single source has a receiver within eight
// cells, a distance the wavefront covers in a few steps.
func TestSingleSourceNearReceivers(t *testing.T) {
	for _, scale := range []string{"tiny", "full"} {
		table, err := workloadTable(scale)
		if err != nil {
			t.Fatal(err)
		}
		for _, w := range table {
			if w.Problem.Sources != 1 {
				continue
			}
			for seed := int64(0); seed < 40; seed++ {
				in, err := generate(w, seed*2654435761)
				if err != nil {
					t.Fatal(err)
				}
				shots := in.Shots
				for _, body := range in.Specs[:min(4, len(in.Specs))] {
					var spec serve.JobSpec
					if err := json.Unmarshal(body, &spec); err != nil {
						t.Fatal(err)
					}
					for _, s := range spec.Shots {
						shots = append(shots, []wavesim.Coord{s.Sources[0]})
					}
				}
				for i, shot := range shots {
					nearest := math.Inf(1)
					for _, r := range in.Receivers {
						nearest = min(nearest, math.Hypot(math.Hypot(r[0]-shot[0][0], r[1]-shot[0][1]), r[2]-shot[0][2]))
					}
					if nearest > 8*spacing {
						t.Errorf("%s/%s seed %d shot %d: nearest receiver is %.0f m from the source", scale, w.Name, seed*2654435761, i, nearest)
					}
				}
			}
		}
	}
}

// TestRecordHashFollowsSeed runs a shot workload end to end: the record
// hash repeats exactly for a seed and moves with it.
func TestRecordHashFollowsSeed(t *testing.T) {
	fnv := func(seed int64) string {
		wr, err := runOne(options{workload: "shot_acoustic_wtb", seed: seed, seconds: 0.01, scale: "tiny", tmp: t.TempDir()}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !wr.Correct {
			t.Fatalf("seed %d: run not correct: %v", seed, wr.Notes)
		}
		return wr.RecordFNV
	}
	a, b, c := fnv(1), fnv(1), fnv(2)
	if a != b {
		t.Errorf("record_fnv differs between two runs of seed 1: %s vs %s", a, b)
	}
	if a == c {
		t.Errorf("record_fnv %s is the same for seeds 1 and 2", a)
	}
}
