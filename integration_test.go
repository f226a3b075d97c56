package bimode_test

// Integration tests encoding the paper's qualitative claims end-to-end:
// they run real sweeps over the calibrated workloads (at reduced dynamic
// budgets) and assert the orderings the paper reports. These are the
// repository's reproduction guarantees; EXPERIMENTS.md records the
// full-scale numbers.

import (
	"bytes"
	"testing"

	"bimode"
	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
)

const integrationDynamic = 250000

func suiteSources(t *testing.T, suite string) []trace.Source {
	t.Helper()
	var out []trace.Source
	for _, p := range synth.Profiles() {
		if p.Suite != suite {
			continue
		}
		out = append(out, trace.Materialize(synth.MustWorkload(p.WithDynamic(integrationDynamic))))
	}
	return out
}

func rateOf(mk func() predictor.Predictor, srcs []trace.Source) float64 {
	jobs := make([]sim.Job, len(srcs))
	for i, s := range srcs {
		jobs[i] = sim.Job{Make: mk, Source: s}
	}
	return sim.AverageRate(sim.RunAll(jobs))
}

// TestPaperHeadlineOrdering asserts Figure 2's ordering on both suite
// averages at a mid size: bi-mode < gshare.best <= gshare.1PHT, with
// bi-mode compared at 1.5x gshare's cost as the paper plots it.
func TestPaperHeadlineOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, suite := range []string{synth.SuiteSPEC, synth.SuiteIBS} {
		srcs := suiteSources(t, suite)
		const s = 12
		best := sim.FindBestGshare(s, srcs)
		onePHT := rateOf(func() predictor.Predictor { return baselines.NewGshare(s, s) }, srcs)
		bimodeRate := rateOf(func() predictor.Predictor { return core.MustNew(core.DefaultConfig(s - 1)) }, srcs)

		if best.AvgRate > onePHT+1e-9 {
			t.Errorf("%s: gshare.best (%.4f) must not lose to gshare.1PHT (%.4f)", suite, best.AvgRate, onePHT)
		}
		if bimodeRate >= best.AvgRate {
			t.Errorf("%s: bi-mode (%.4f) must beat gshare.best (%.4f) on the suite average", suite, bimodeRate, best.AvgRate)
		}
		// The paper finds the best configuration generally has multiple
		// PHTs at this size (history shorter than the index).
		if best.HistoryBits >= s {
			t.Errorf("%s: gshare.best at 2^%d counters picked full history; expected multiple PHTs", suite, s)
		}
	}
}

// TestGoPrefersAddressIndexing asserts the paper's go anomaly (Sections
// 3.3/4.4): the best gshare uses few history bits and beats bi-mode.
func TestGoPrefersAddressIndexing(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	src := []trace.Source{trace.Materialize(mustWorkload(t, "go", integrationDynamic))}
	const s = 12
	sweep := sim.SweepGshare(s, src)
	bestH, bestRate := -1, 2.0
	for h, row := range sweep {
		if r := sim.AverageRate(row); r < bestRate {
			bestH, bestRate = h, r
		}
	}
	if bestH > 4 {
		t.Errorf("go's best gshare history = %d, expected an address-heavy configuration", bestH)
	}
	bimodeRate := rateOf(func() predictor.Predictor { return core.MustNew(core.DefaultConfig(s - 1)) }, src)
	if bestRate >= bimodeRate {
		t.Errorf("go: best multi-PHT gshare (%.4f) should beat bi-mode (%.4f), as in the paper", bestRate, bimodeRate)
	}
}

// TestFewStaticBenchmarksPrefer1PHT asserts the paper's compress/xlisp
// observation: with so few static branches, the single-PHT gshare beats
// the multi-PHT gshare.best configurations at moderate-to-large sizes.
func TestFewStaticBenchmarksPrefer1PHT(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, name := range []string{"compress", "xlisp"} {
		src := []trace.Source{trace.Materialize(mustWorkload(t, name, integrationDynamic))}
		const s = 14
		onePHT := rateOf(func() predictor.Predictor { return baselines.NewGshare(s, s) }, src)
		// Compare against moderate multi-PHT configurations (the shapes
		// gshare.best picks on the suite average).
		multi := rateOf(func() predictor.Predictor { return baselines.NewGshare(s, 6) }, src)
		if onePHT >= multi {
			t.Errorf("%s: 1PHT (%.4f) should beat a multi-PHT gshare (%.4f)", name, onePHT, multi)
		}
	}
}

// TestBiModeCostEffectiveness asserts the paper's cost claim directionally:
// at equal accuracy targets in the upper size range, gshare.best needs a
// larger budget than bi-mode.
func TestBiModeCostEffectiveness(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	srcs := suiteSources(t, synth.SuiteIBS)
	// bi-mode at 3*2^11 counters (1.5 KB) vs gshare.best at 2^13 (2 KB):
	// the smaller bi-mode should still win.
	bimodeRate := rateOf(func() predictor.Predictor { return core.MustNew(core.DefaultConfig(11)) }, srcs)
	best := sim.FindBestGshare(13, srcs)
	if bimodeRate >= best.AvgRate {
		t.Errorf("bi-mode at 1.5KB (%.4f) should beat gshare.best at 2KB (%.4f)", bimodeRate, best.AvgRate)
	}
}

// TestPartialUpdateHelps asserts the paper's design rationale for the
// partial choice update: disabling it must not improve the suite-average
// accuracy at small sizes.
func TestPartialUpdateHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	srcs := suiteSources(t, synth.SuiteSPEC)
	cfg := core.DefaultConfig(9) // small budget: where the paper says it matters
	partial := rateOf(func() predictor.Predictor { return core.MustNew(cfg) }, srcs)
	full := cfg
	full.FullChoiceUpdate = true
	fullRate := rateOf(func() predictor.Predictor { return core.MustNew(full) }, srcs)
	// On the synthetic streams the two policies land within a few percent
	// of each other (the paper reports a small benefit on real traces;
	// see the ablation bench and EXPERIMENTS.md). Guard against the
	// policy being outright harmful.
	if partial > fullRate*1.05 {
		t.Errorf("partial update (%.4f) should not be materially worse than full update (%.4f)", partial, fullRate)
	}
}

// TestTraceRoundTripThroughSimulation: saving and reloading a workload
// must not change simulation results.
func TestTraceRoundTripThroughSimulation(t *testing.T) {
	src := bimode.Materialize(mustWorkload(t, "verilog", 50000))
	direct := bimode.Run(bimode.DefaultBiMode(9), src)

	var buf bytes.Buffer
	m := trace.Materialize(src)
	if err := trace.WriteColumnar(&buf, m); err != nil {
		t.Fatal(err)
	}
	loaded, err := trace.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	replayed := bimode.Run(bimode.DefaultBiMode(9), loaded)
	if direct.Mispredicts != replayed.Mispredicts || direct.Branches != replayed.Branches {
		t.Fatalf("disk roundtrip changed results: %+v vs %+v", direct, replayed)
	}
}
