package experiments

import (
	"fmt"
	"strings"

	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
)

// RivalPoint is one (scheme, size) cell of the de-aliasing shoot-out.
type RivalPoint struct {
	Scheme    string
	CostBytes float64
	// SPECRate and IBSRate are suite-average misprediction rates, NaN
	// when a cell of the suite failed.
	SPECRate, IBSRate float64
}

// Rivals compares the de-aliasing designs the paper discusses (and its
// successors) at matched budgets across the size axis: gshare, agree,
// e-gskew, YAGS, the filter mechanism, the 21264-style tournament,
// bi-mode and tri-mode. This is the [Lee97] comparison the paper points
// to, regenerated on the calibrated workloads.
func Rivals(cfg Config) [][]RivalPoint {
	cfg = cfg.withDefaults()
	spec := SuiteSources(synth.SuiteSPEC, cfg)
	ibs := SuiteSources(synth.SuiteIBS, cfg)

	type scheme struct {
		name string
		mk   func(s int) predictor.Predictor
	}
	schemes := []scheme{
		{"gshare.1PHT", func(s int) predictor.Predictor { return baselines.NewGshare(s, s) }},
		{"agree", func(s int) predictor.Predictor { return baselines.NewAgree(s, s, s-2) }},
		{"filter", func(s int) predictor.Predictor { return baselines.NewFilter(s, s, s-2, 32) }},
		{"e-gskew", func(s int) predictor.Predictor { return baselines.NewGskew(s-1, s-1, true) }},
		{"yags", func(s int) predictor.Predictor { return baselines.NewYAGS(s-1, s-2, s-2, 6) }},
		{"tournament", func(s int) predictor.Predictor { return baselines.NewAlpha21264Style(s - 1) }},
		{"bi-mode", func(s int) predictor.Predictor { return core.MustNew(core.DefaultConfig(s - 1)) }},
		{"tri-mode", func(s int) predictor.Predictor { return core.MustNewTriMode(core.DefaultConfig(s - 2)) }},
	}

	// One flat job grid per size point — every scheme over both suites in
	// a single scheduler dispatch, sliced back apart in job order.
	sched := cfg.sched()
	var out [][]RivalPoint
	for s := cfg.MinSizeBits; s <= cfg.MaxSizeBits; s++ {
		s := s
		perScheme := len(spec) + len(ibs)
		jobs := make([]sim.Job, 0, len(schemes)*perScheme)
		for _, sc := range schemes {
			sc := sc
			for _, src := range append(append([]trace.Source{}, spec...), ibs...) {
				jobs = append(jobs, sim.Job{Make: func() predictor.Predictor { return sc.mk(s) }, Source: src})
			}
		}
		flat := sched.RunAll(jobs)
		row := make([]RivalPoint, len(schemes))
		for i, sc := range schemes {
			res := flat[i*perScheme : (i+1)*perScheme]
			row[i] = RivalPoint{
				Scheme:    sc.name,
				CostBytes: predictor.CostBytes(sc.mk(s)),
				SPECRate:  sim.AverageRate(res[:len(spec)]),
				IBSRate:   sim.AverageRate(res[len(spec):]),
			}
		}
		out = append(out, row)
	}
	return out
}

// RenderRivals formats the shoot-out; a failed suite average renders as
// a "--" gap.
//
//bimode:deterministic
func RenderRivals(rows [][]RivalPoint) string {
	var b strings.Builder
	b.WriteString("De-aliasing rivals at matched budgets (suite-average mispredict %)\n")
	b.WriteString("(costs differ slightly per scheme; shown per cell in KB)\n\n")
	for _, suite := range []string{"SPEC CINT95", "IBS-Ultrix"} {
		fmt.Fprintf(&b, "%s (columns: increasing budget, rate%%@cost):\n", suite)
		if len(rows) == 0 {
			continue
		}
		for i := range rows[0] {
			fmt.Fprintf(&b, "%-12s", rows[0][i].Scheme)
			for _, row := range rows {
				p := row[i]
				rate := p.SPECRate
				if suite == "IBS-Ultrix" {
					rate = p.IBSRate
				}
				fmt.Fprintf(&b, "  %s@%-5s", fmtRate(5, rate), kb(p.CostBytes))
			}
			b.WriteString("\n")
		}
		b.WriteString("\n")
	}
	return b.String()
}
