package bench

import (
	"testing"

	"wavetile/internal/roofline"
	"wavetile/internal/tiling"
)

func TestTuneWTBSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	res, err := TuneWTB(Spec{Model: "acoustic", SO: 4, N: 48}, tiling.WTB, 2, 1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no tuning results")
	}
	for i := 1; i < len(res); i++ {
		if res[i].Elapsed < res[i-1].Elapsed {
			t.Fatal("tuning results not sorted")
		}
	}
}

func TestFig9WallSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	rows, err := Fig9Wall([]Spec{{Model: "acoustic", SO: 4, N: 40, Steps: 4}}, 2, 1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].SpatialGP <= 0 || rows[0].WTBGP <= 0 {
		t.Fatalf("bad rows: %+v", rows)
	}
}

func TestFig10WallSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	cfg := tiling.Config{TT: 4, TileX: 16, TileY: 16, BlockX: 8, BlockY: 8}
	rows, err := Fig10Wall(40, 4, []int{1, 16}, cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 { // 2 layouts × 2 counts
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 || r.Mode != "wall" {
			t.Fatalf("bad row: %+v", r)
		}
	}
}

func TestFig11Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	pts, err := Fig11(roofline.Broadwell(), []int{4}, SimOptions{TraceN: 40, TraceNt: 4, RefN: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("%d roofline points", len(pts))
	}
	tb := Fig11Table(roofline.Broadwell(), pts)
	if len(tb.Rows) != 2 || len(tb.Header) != 7 {
		t.Fatalf("table %dx%d", len(tb.Rows), len(tb.Header))
	}
	for _, p := range pts {
		if p.Pred.GFlops <= 0 || len(p.Pred.AIs) != 3 {
			t.Fatalf("bad prediction: %+v", p.Pred)
		}
	}
}

func TestFig10SimSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	rows, err := Fig10Sim(roofline.Broadwell(), []int{1, 256},
		SimOptions{TraceN: 40, TraceNt: 4, RefN: 512})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.Speedup <= 0 || r.Mode != "Broadwell" {
			t.Fatalf("bad row: %+v", r)
		}
	}
}

func TestPaperSpecs(t *testing.T) {
	specs := PaperSpecs(512, 0)
	if len(specs) != 9 {
		t.Fatalf("%d specs, want 9", len(specs))
	}
	seen := map[string]bool{}
	for _, s := range specs {
		seen[s.Name()] = true
	}
	for _, want := range []string{"Acoustic O(2,4)", "Elastic O(1,12)", "TTI O(2,8)"} {
		if !seen[want] {
			t.Fatalf("missing spec %s", want)
		}
	}
}
