package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"bimode/internal/sim"
	"bimode/internal/synth"
)

// TestRivalsDegradeOnFailedCells drives the shoot-out through a
// scheduler whose context is already canceled, over a warm suite memo:
// every cell fails, so every suite average is NaN and renders as a "--"
// gap, never as a plausible 0.00 rate.
func TestRivalsDegradeOnFailedCells(t *testing.T) {
	cfg := Config{Dynamic: 1000, MinSizeBits: 8, MaxSizeBits: 8}
	SuiteSources(synth.SuiteSPEC, cfg)
	SuiteSources(synth.SuiteIBS, cfg)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg.Sched = sim.NewScheduler(0).WithContext(ctx)
	rows := Rivals(cfg)
	if len(rows) != 1 || len(rows[0]) != 8 {
		t.Fatalf("want 1 size row of 8 schemes, got %d rows", len(rows))
	}
	for _, p := range rows[0] {
		if !math.IsNaN(p.SPECRate) || !math.IsNaN(p.IBSRate) {
			t.Errorf("%s: failed cells averaged to %v / %v, want NaN", p.Scheme, p.SPECRate, p.IBSRate)
		}
	}
	text := RenderRivals(rows)
	if strings.Contains(text, "0.00@") || strings.Count(text, "   --@") != 16 {
		t.Fatalf("failed averages must render as 16 gaps:\n%s", text)
	}
}

func TestRivalsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	cfg := Config{Dynamic: 25000, MinSizeBits: 9, MaxSizeBits: 10}
	rows := Rivals(cfg)
	if len(rows) != 2 {
		t.Fatalf("want 2 size rows, got %d", len(rows))
	}
	for _, row := range rows {
		if len(row) != 8 {
			t.Fatalf("want 8 schemes, got %d", len(row))
		}
		for _, p := range row {
			if p.SPECRate <= 0 || p.SPECRate > 0.6 || p.IBSRate <= 0 || p.IBSRate > 0.6 {
				t.Fatalf("%s: implausible rates %+v", p.Scheme, p)
			}
			if p.CostBytes <= 0 {
				t.Fatalf("%s: missing cost", p.Scheme)
			}
		}
	}
	// Budgets must grow along the axis.
	if rows[1][0].CostBytes <= rows[0][0].CostBytes {
		t.Fatalf("cost axis not increasing")
	}
	text := RenderRivals(rows)
	for _, want := range []string{"bi-mode", "e-gskew", "tournament", "IBS-Ultrix"} {
		if !strings.Contains(text, want) {
			t.Fatalf("render missing %q", want)
		}
	}
	if RenderRivals(nil) == "" {
		t.Fatalf("empty render must still produce a header")
	}
}
