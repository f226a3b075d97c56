package bimode_test

// One benchmark per table and figure of the paper, plus the ablation
// benches DESIGN.md calls out and raw predictor-throughput benches.
//
// The per-figure benchmarks run the experiment drivers at a reduced
// dynamic budget (benchDynamic branches per workload) so `go test
// -bench=.` finishes on a laptop; they report the headline rates as
// custom metrics (mispredict percentages, interruption counts). Full-
// scale regeneration is `go run ./cmd/paper`, whose output EXPERIMENTS.md
// records.

import (
	"fmt"
	"sync"
	"testing"

	"bimode"
	"bimode/internal/analysis"
	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/experiments"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/workloads"
)

const benchDynamic = 300000

var benchCfg = experiments.Config{Dynamic: benchDynamic, MinSizeBits: 10, MaxSizeBits: 13}

// benchSource caches materialized workloads across benchmarks.
var benchSource = func() func(name string) trace.Source {
	var mu sync.Mutex
	cache := map[string]trace.Source{}
	return func(name string) trace.Source {
		mu.Lock()
		defer mu.Unlock()
		if s, ok := cache[name]; ok {
			return s
		}
		s := trace.Materialize(workloads.MustGet(name, workloads.Options{Dynamic: benchDynamic}))
		cache[name] = s
		return s
	}
}()

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Table1()) != 6 {
			b.Fatal("table 1 incomplete")
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Table2(experiments.Config{Dynamic: benchDynamic})
		if len(rows) != 14 {
			b.Fatal("table 2 incomplete")
		}
	}
}

// BenchmarkFigure2 runs the full three-scheme size sweep (both suites)
// and reports the suite-average rates at the largest size.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f := experiments.Figures234(benchCfg)
		last := len(f.SPECAvg.BiMode) - 1
		b.ReportMetric(100*f.SPECAvg.Gshare1PHT[last], "spec-1PHT-%")
		b.ReportMetric(100*f.SPECAvg.GshareBest[last], "spec-best-%")
		b.ReportMetric(100*f.SPECAvg.BiMode[last], "spec-bimode-%")
		b.ReportMetric(100*f.IBSAvg.BiMode[last], "ibs-bimode-%")
	}
}

// BenchmarkFigure3 sweeps the six SPEC benchmarks individually.
func BenchmarkFigure3(b *testing.B) {
	benchFigPanels(b, synth.SuiteSPEC)
}

// BenchmarkFigure4 sweeps the eight IBS benchmarks individually.
func BenchmarkFigure4(b *testing.B) {
	benchFigPanels(b, synth.SuiteIBS)
}

func benchFigPanels(b *testing.B, suite string) {
	sources := experiments.SuiteSources(suite, benchCfg)
	for i := 0; i < b.N; i++ {
		const s = 12
		sweep := sim.SweepGshare(s, sources)
		best := sim.PickBestGshare(s, sweep)
		jobs := make([]sim.Job, len(sources))
		for j, src := range sources {
			jobs[j] = sim.Job{
				Make:   func() predictor.Predictor { return core.MustNew(core.DefaultConfig(s - 1)) },
				Source: src,
			}
		}
		bm := sim.RunAll(jobs)
		b.ReportMetric(100*sim.AverageRate(sweep[s]), "1PHT-%")
		b.ReportMetric(100*best.AvgRate, "best-%")
		b.ReportMetric(100*sim.AverageRate(bm), "bimode-%")
	}
}

func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ex, err := experiments.Table3("gcc", benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*ex.WBShare, "wb-share-%")
	}
}

func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		hist, addr, err := experiments.Figure5("gcc", benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*hist.WBArea, "hist-wb-%")
		b.ReportMetric(100*hist.NonDominantArea, "hist-nondom-%")
		b.ReportMetric(100*addr.WBArea, "addr-wb-%")
		b.ReportMetric(100*addr.NonDominantArea, "addr-nondom-%")
	}
}

func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bm, err := experiments.Figure6("gcc", benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(100*bm.DominantArea, "dom-%")
		b.ReportMetric(100*bm.WBArea, "wb-%")
	}
}

func BenchmarkTable4(b *testing.B) {
	for i := 0; i < b.N; i++ {
		t4, err := experiments.Table4("gcc", benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		hi := t4.HistoryIndexed
		bm := t4.BiMode
		b.ReportMetric(float64(hi[0]+hi[1]+hi[2]), "gshare-changes")
		b.ReportMetric(float64(bm[0]+bm[1]+bm[2]), "bimode-changes")
	}
}

func BenchmarkFigure7(b *testing.B) {
	benchClassBreakdown(b, "gcc")
}

func BenchmarkFigure8(b *testing.B) {
	benchClassBreakdown(b, "go")
}

func benchClassBreakdown(b *testing.B, workload string) {
	for i := 0; i < b.N; i++ {
		pts, err := experiments.Figures78(workload, benchCfg)
		if err != nil {
			b.Fatal(err)
		}
		// Report the 1K-counter row (middle triple).
		for _, p := range pts[3:6] {
			b.ReportMetric(100*(p.SNT+p.ST+p.WB), p.Label+"-%")
		}
	}
}

// ---- Ablation benches (DESIGN.md section 4) ----

func ablationRate(b *testing.B, mk func() predictor.Predictor) float64 {
	b.Helper()
	srcs := []trace.Source{benchSource("gcc"), benchSource("vortex"), benchSource("groff")}
	jobs := make([]sim.Job, len(srcs))
	for i, s := range srcs {
		jobs[i] = sim.Job{Make: mk, Source: s}
	}
	return sim.AverageRate(sim.RunAll(jobs))
}

// BenchmarkAblationChoiceUpdate compares the paper's partial choice
// update against always updating the choice predictor.
func BenchmarkAblationChoiceUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(9)
		partial := ablationRate(b, func() predictor.Predictor { return core.MustNew(cfg) })
		full := cfg
		full.FullChoiceUpdate = true
		fullRate := ablationRate(b, func() predictor.Predictor { return core.MustNew(full) })
		b.ReportMetric(100*partial, "partial-%")
		b.ReportMetric(100*fullRate, "full-%")
	}
}

// BenchmarkAblationBankUpdate compares selective direction-bank update
// against training both banks.
func BenchmarkAblationBankUpdate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := core.DefaultConfig(10)
		sel := ablationRate(b, func() predictor.Predictor { return core.MustNew(cfg) })
		both := cfg
		both.UpdateBothBanks = true
		bothRate := ablationRate(b, func() predictor.Predictor { return core.MustNew(both) })
		b.ReportMetric(100*sel, "selective-%")
		b.ReportMetric(100*bothRate, "bothbanks-%")
	}
}

// BenchmarkAblationChoiceSize varies the choice table relative to the
// direction banks (the paper uses choice == one bank).
func BenchmarkAblationChoiceSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, c := range []int{8, 10, 12} {
			rate := ablationRate(b, func() predictor.Predictor {
				return core.MustNew(core.Config{ChoiceBits: c, BankBits: 10, HistoryBits: 10})
			})
			b.ReportMetric(100*rate, fmt.Sprintf("choice%d-%%", c))
		}
	}
}

// BenchmarkExtensionRivals compares bi-mode against the other de-aliasing
// designs ([Lee97] comparison) at roughly 2 KB budgets.
func BenchmarkExtensionRivals(b *testing.B) {
	rivals := []struct {
		label string
		mk    func() predictor.Predictor
	}{
		{"bimode", func() predictor.Predictor { return core.MustNew(core.DefaultConfig(12)) }},
		{"gshare", func() predictor.Predictor { return baselines.NewGshare(13, 13) }},
		{"agree", func() predictor.Predictor { return baselines.NewAgree(13, 13, 11) }},
		{"e-gskew", func() predictor.Predictor { return baselines.NewGskew(12, 12, true) }},
		{"yags", func() predictor.Predictor { return baselines.NewYAGS(12, 11, 11, 6) }},
	}
	for i := 0; i < b.N; i++ {
		for _, r := range rivals {
			b.ReportMetric(100*ablationRate(b, r.mk), r.label+"-%")
		}
	}
}

// BenchmarkStudyOverhead measures the one-pass Section 4 analysis.
func BenchmarkStudyOverhead(b *testing.B) {
	src := benchSource("gcc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := analysis.RunStudy(baselines.NewGshare(8, 8), src)
		if err != nil {
			b.Fatal(err)
		}
		if st.Branches == 0 {
			b.Fatal("empty study")
		}
	}
}

// ---- Raw predictor throughput (predict+update per branch) ----

func BenchmarkPredictorThroughput(b *testing.B) {
	specs := []string{
		"smith:a=12", "gshare:i=12,h=12", "bimode:b=11",
		"agree:i=12,h=12,b=10", "gskew:b=11,h=11,p=1", "yags:c=11,e=10,h=10,t=6",
		"pas:b=10,h=8,s=2",
	}
	src := benchSource("gcc").(*trace.Memory)
	recs := src.Records()
	for _, spec := range specs {
		spec := spec
		b.Run(spec, func(b *testing.B) {
			p, err := bimode.NewPredictor(spec)
			if err != nil {
				b.Fatal(err)
			}
			miss := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := recs[i%len(recs)]
				if p.Predict(r.PC) != r.Taken {
					miss++
				}
				p.Update(r.PC, r.Taken)
			}
			b.ReportMetric(float64(miss)/float64(b.N)*100, "miss-%")
		})
	}
}

// BenchmarkFetchEngine runs the full front end (direction + BTB + RAS)
// over a control-flow trace.
func BenchmarkFetchEngine(b *testing.B) {
	src, err := bimode.ControlWorkload("perl", bimode.WorkloadOptions{Dynamic: benchDynamic})
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		eng := bimode.NewFetchEngine(bimode.FetchConfig{
			Direction:  core.MustNew(core.DefaultConfig(11)),
			BTBSetBits: 9, BTBWays: 4, BTBTagBits: 8, RASSize: 16,
		})
		m := eng.Run(src)
		b.ReportMetric(m.BubblesPerKiloEvent(), "bubbles/1k")
		b.ReportMetric(100*m.DirectionRate(), "dir-miss-%")
	}
}

// BenchmarkResolutionLag measures update-latency sensitivity.
func BenchmarkResolutionLag(b *testing.B) {
	src := benchSource("gcc")
	for i := 0; i < b.N; i++ {
		for _, lag := range []int{0, 8, 32} {
			r := sim.RunDelayed(core.MustNew(core.DefaultConfig(11)), src, lag)
			b.ReportMetric(100*r.MispredictRate(), fmt.Sprintf("lag%d-%%", lag))
		}
	}
}

// BenchmarkInterference runs the conflict/capacity decomposition.
func BenchmarkInterference(b *testing.B) {
	src := benchSource("gcc")
	for i := 0; i < b.N; i++ {
		gs, err := analysis.MeasureInterference(baselines.NewGshare(12, 12), src)
		if err != nil {
			b.Fatal(err)
		}
		bm, err := analysis.MeasureInterference(core.MustNew(core.DefaultConfig(11)), src)
		if err != nil {
			b.Fatal(err)
		}
		_, gsConf, _ := gs.Rates()
		_, bmConf, _ := bm.Rates()
		b.ReportMetric(100*gsConf, "gshare-conflict-%")
		b.ReportMetric(100*bmConf, "bimode-conflict-%")
	}
}

// BenchmarkTraceGeneration measures the synthetic workload generator.
func BenchmarkTraceGeneration(b *testing.B) {
	prof, _ := synth.ProfileByName("gcc")
	prof = prof.WithDynamic(benchDynamic)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st := synth.MustWorkload(prof).Stream()
		n := 0
		for {
			if _, ok := st.Next(); !ok {
				break
			}
			n++
		}
		if n != benchDynamic {
			b.Fatal("short stream")
		}
	}
	b.ReportMetric(float64(benchDynamic), "branches/op")
}
