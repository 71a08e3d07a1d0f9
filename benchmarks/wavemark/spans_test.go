package main

import (
	"math"
	"testing"
	"time"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4)    == [1.0, 2.0, 3.0]
	for _, tc := range []struct {
		in         []float64
		q1, m, q3p float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{7}, 7, 7, 7},
	} {
		q1, m, q3 := quartiles(tc.in)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3p) > 1e-12 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.in, q1, m, q3, tc.q1, tc.m, tc.q3p)
		}
	}
}

func TestSelfTimeSubtractsTheUnionOfChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{ID: 1, Parent: 0, Layer: "wavemark", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Layer: "model", Start: ms(0), End: ms(10)},
		{ID: 3, Parent: 1, Layer: "tiling", Start: ms(20), End: ms(90)},
		// Two Steps that overlap for 10 ms (concurrent workers) and one that
		// sticks out of its parent: the union inside the parent is 50 ms.
		{ID: 4, Parent: 3, Layer: "wave", Start: ms(20), End: ms(50)},
		{ID: 5, Parent: 3, Layer: "wave", Start: ms(40), End: ms(60)},
		{ID: 6, Parent: 3, Layer: "wave", Start: ms(80), End: ms(95)},
		// Another root's span must not be counted.
		{ID: 7, Parent: 0, Layer: "model", Start: ms(0), End: ms(500)},
	}
	self := selfTimes(spans, 1)
	for layer, want := range map[string]time.Duration{
		"wavemark": ms(20), // 100 − 10 (model) − 70 (tiling)
		"model":    ms(10),
		"tiling":   ms(20), // 70 − 50
		"wave":     ms(65), // leaves keep their whole duration
	} {
		if self[layer] != want {
			t.Errorf("self[%s] = %v, want %v", layer, self[layer], want)
		}
	}
}

func TestNilRecorderRecordsNothing(t *testing.T) {
	var r *recorder
	id := r.begin(0, "wave", "Step", 0)
	r.end(id)
	r.add(0, "wave", "Step", 0, time.Now(), time.Now())
	if id != 0 || len(r.snapshot()) != 0 {
		t.Errorf("a nil recorder handed out span %d and %d spans", id, len(r.snapshot()))
	}
}
