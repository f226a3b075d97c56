package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata/")

// goldenCfg is a deliberately small, fully deterministic configuration:
// synthetic workloads are seeded, the sweep math is integer counting, and
// renders use fixed-precision formatting, so the emitted bytes are stable
// across platforms. Regenerate with `go test ./internal/experiments -run
// Golden -update` after an intentional change to workloads or emitters.
var goldenCfg = Config{Dynamic: 4000, MinSizeBits: 8, MaxSizeBits: 9}

// goldenFig234 runs the figure sweep once for all golden tests.
var goldenFig234 = sync.OnceValue(func() *Fig234 { return Figures234(goldenCfg) })

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s drifted from golden.\n--- got ---\n%s\n--- want ---\n%s\nIf the change is intentional, rerun with -update.",
			name, got, want)
	}
}

// TestGoldenCurvesCSV pins the replotting CSV for the Figures 2-4 sweep:
// the averaged panels plus every per-benchmark panel.
func TestGoldenCurvesCSV(t *testing.T) {
	f := goldenFig234()
	panels := append([]SizeCurves{f.SPECAvg, f.IBSAvg}, append(f.SPEC, f.IBS...)...)
	checkGolden(t, "curves.csv.golden", CurvesCSV(panels))
}

// TestGoldenSizeCurves pins the rendered Figure 2 panel (table + ASCII
// chart) for the SPEC average.
func TestGoldenSizeCurves(t *testing.T) {
	checkGolden(t, "fig2_spec_avg.txt.golden", RenderSizeCurves(goldenFig234().SPECAvg))
}

// TestGoldenTable1 pins the Table 1 text (profile documentation; no
// simulation involved, so it catches profile drift specifically).
func TestGoldenTable1(t *testing.T) {
	checkGolden(t, "table1.txt.golden", RenderTable1(Table1()))
}

// TestGoldenTable2 pins the Table 2 text (branch statistics at the golden
// scale).
func TestGoldenTable2(t *testing.T) {
	checkGolden(t, "table2.txt.golden", RenderTable2(Table2(goldenCfg)))
}

// TestGoldenBreakdowns pins the Section 4 bias breakdowns: both Figure 5
// panels (history- and address-indexed gshare) and the Figure 6 bi-mode
// panel.
func TestGoldenBreakdowns(t *testing.T) {
	hist, addr, err := Figure5("gcc", goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5.txt.golden", RenderBreakdown(hist)+"\n"+RenderBreakdown(addr))
	bm, err := Figure6("gcc", goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6.txt.golden", RenderBreakdown(bm))
}

// TestGoldenTables34 pins the Table 3 normalized-count example (PCs
// included) and the Table 4 interruption counts.
func TestGoldenTables34(t *testing.T) {
	ex, err := Table3("gcc", goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3.txt.golden", RenderTable3(ex))
	t4, err := Table4("gcc", goldenCfg)
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table4.txt.golden", RenderTable4(t4))
}

// TestGoldenFigures78 pins the misprediction-by-class bars on gcc
// (Figure 7) and go (Figure 8).
func TestGoldenFigures78(t *testing.T) {
	for _, c := range []struct{ workload, golden string }{
		{"gcc", "fig7.txt.golden"},
		{"go", "fig8.txt.golden"},
	} {
		pts, err := Figures78(c.workload, goldenCfg)
		if err != nil {
			t.Fatal(err)
		}
		checkGolden(t, c.golden, RenderFigures78(c.workload, pts))
	}
}
