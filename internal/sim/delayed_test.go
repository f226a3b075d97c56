package sim

import (
	"testing"

	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/trace"
)

func TestRunDelayedZeroLagMatchesRun(t *testing.T) {
	src := trace.Materialize(fixedSource(3000))
	a := Run(baselines.NewGshare(8, 8), src)
	b := RunDelayed(baselines.NewGshare(8, 8), src, 0)
	if a.Mispredicts != b.Mispredicts || a.Branches != b.Branches {
		t.Fatalf("lag 0 must equal the plain run: %+v vs %+v", a, b)
	}
}

func TestRunDelayedDegradesHistorySchemes(t *testing.T) {
	src := trace.Materialize(fixedSource(6000))
	// The alternating branch in fixedSource is perfectly predictable by
	// history at lag 0 and unpredictable with a stale history register.
	lag0 := RunDelayed(baselines.NewGshare(8, 8), src, 0)
	lag8 := RunDelayed(baselines.NewGshare(8, 8), src, 8)
	if lag8.Mispredicts <= lag0.Mispredicts {
		t.Fatalf("resolution lag should hurt a history predictor: %d vs %d",
			lag8.Mispredicts, lag0.Mispredicts)
	}
	// A PC-indexed predictor barely cares.
	s0 := RunDelayed(baselines.NewSmith(8), src, 0)
	s8 := RunDelayed(baselines.NewSmith(8), src, 8)
	if s8.Mispredicts > s0.Mispredicts+s0.Branches/50 {
		t.Fatalf("smith should be nearly lag-insensitive: %d vs %d", s8.Mispredicts, s0.Mispredicts)
	}
}

func TestRunDelayedBranchesCounted(t *testing.T) {
	src := trace.Materialize(fixedSource(1000))
	res := RunDelayed(core.MustNew(core.DefaultConfig(6)), src, 5)
	if res.Branches != 1000 {
		t.Fatalf("branches = %d", res.Branches)
	}
}

func TestRunDelayedPanicsOnNegativeLag(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("negative lag must panic")
		}
	}()
	RunDelayed(baselines.NewSmith(4), fixedSource(10), -1)
}
