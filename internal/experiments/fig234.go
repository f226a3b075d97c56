package experiments

import (
	"fmt"
	"math"
	"strings"

	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/textplot"
	"bimode/internal/trace"
)

// SizeCurves holds, for one workload (or a suite average), the
// misprediction rate of each scheme across the size axis — the contents
// of one panel of Figures 2, 3 or 4.
type SizeCurves struct {
	// Workload is the benchmark name, or "CINT95-AVERAGE"/"IBS-AVERAGE".
	Workload string
	// Gshare1PHT[i] and GshareBest[i] are rates at 2^(MinSizeBits+i)
	// counters; BiMode[i] is the rate of the bi-mode predictor with banks
	// of 2^(MinSizeBits+i-1) counters (cost 1.5x the next smaller
	// gshare), matching the paper's placement.
	Gshare1PHT, GshareBest, BiMode []float64
	// GshareCost and BiModeCost give the x positions in bytes.
	GshareCost, BiModeCost []float64
}

// Fig234 is the result of the Figures 2-4 sweep.
type Fig234 struct {
	// SPECAvg and IBSAvg are the two panels of Figure 2.
	SPECAvg, IBSAvg SizeCurves
	// SPEC and IBS are the per-benchmark panels of Figures 3 and 4.
	SPEC, IBS []SizeCurves
	// BestHistory records the winning gshare history length per size
	// (indexed like the curves), per suite.
	BestHistorySPEC, BestHistoryIBS []int
	// SizeBits echoes the swept sizes.
	SizeBits []int
	// Failures annotates every grid cell that did not complete (one line
	// per failed (scheme, workload, size) cell, in sweep order). The
	// corresponding curve points are NaN — rendered as gaps — instead of
	// aborting the whole figure; RenderFootnotes turns these lines into
	// the figure's error footnote.
	Failures []string
}

// Figures234 runs the full sweep behind Figures 2, 3 and 4: for every
// size on the paper's axis it simulates gshare at every history length
// (selecting gshare.best on the suite average, separately per suite as
// the paper does), the single-PHT gshare, and the bi-mode predictor, over
// all fourteen benchmarks.
func Figures234(cfg Config) *Fig234 {
	cfg = cfg.withDefaults()
	out := &Fig234{}
	for s := cfg.MinSizeBits; s <= cfg.MaxSizeBits; s++ {
		out.SizeBits = append(out.SizeBits, s)
	}

	specSources := SuiteSources(synth.SuiteSPEC, cfg)
	ibsSources := SuiteSources(synth.SuiteIBS, cfg)

	var specFails, ibsFails []string
	out.SPECAvg, out.SPEC, out.BestHistorySPEC, specFails = sweepSuite(cfg.sched(), "CINT95-AVERAGE", specSources, out.SizeBits)
	out.IBSAvg, out.IBS, out.BestHistoryIBS, ibsFails = sweepSuite(cfg.sched(), "IBS-AVERAGE", ibsSources, out.SizeBits)
	out.Failures = append(specFails, ibsFails...)
	return out
}

// cellRate converts one sweep cell to a curve point: a failed cell (a
// canceled suite, a panicked job) becomes NaN — a gap in the rendered
// panel — rather than a fake zero or an abort.
func cellRate(res sim.Result) float64 {
	if res.Err != nil {
		return math.NaN()
	}
	return res.MispredictRate()
}

// noteFailures appends one annotation per failed cell of a sweep row.
func noteFailures(fails []string, scheme string, sizeBits int, results []sim.Result) []string {
	for _, r := range results {
		if r.Err != nil {
			fails = append(fails, fmt.Sprintf("%s @ %s, size 2^%d: %v", scheme, r.Workload, sizeBits, r.Err))
		}
	}
	return fails
}

func sweepSuite(sched *sim.Scheduler, avgName string, sources []trace.Source, sizeBits []int) (SizeCurves, []SizeCurves, []int, []string) {
	avg := SizeCurves{Workload: avgName}
	per := make([]SizeCurves, len(sources))
	for i, src := range sources {
		per[i].Workload = src.Name()
	}
	var bestHist []int
	var fails []string

	for _, s := range sizeBits {
		sweep := sched.SweepGshare(s, sources)
		best := sim.PickBestGshare(s, sweep)
		onePHT := sweep[s]

		bankBits := s - 1
		jobs := make([]sim.Job, len(sources))
		for i, src := range sources {
			jobs[i] = sim.Job{
				Make: func() predictor.Predictor {
					return core.MustNew(core.DefaultConfig(bankBits))
				},
				Source: src,
			}
		}
		bimodeRes := sched.RunAll(jobs)

		fails = noteFailures(fails, "gshare.1PHT", s, onePHT)
		fails = noteFailures(fails, "gshare.best", s, best.PerWorkload)
		fails = noteFailures(fails, "bi-mode", s, bimodeRes)

		gCost := float64(int(1) << uint(s) * 2 / 8)
		bCost := float64(3 * (int(1) << uint(bankBits)) * 2 / 8)
		avg.GshareCost = append(avg.GshareCost, gCost)
		avg.BiModeCost = append(avg.BiModeCost, bCost)
		avg.Gshare1PHT = append(avg.Gshare1PHT, sim.AverageRate(onePHT))
		avg.GshareBest = append(avg.GshareBest, best.AvgRate)
		avg.BiMode = append(avg.BiMode, sim.AverageRate(bimodeRes))
		bestHist = append(bestHist, best.HistoryBits)

		for i := range sources {
			per[i].GshareCost = append(per[i].GshareCost, gCost)
			per[i].BiModeCost = append(per[i].BiModeCost, bCost)
			per[i].Gshare1PHT = append(per[i].Gshare1PHT, cellRate(onePHT[i]))
			per[i].GshareBest = append(per[i].GshareBest, cellRate(best.PerWorkload[i]))
			per[i].BiMode = append(per[i].BiMode, cellRate(bimodeRes[i]))
		}
	}
	return avg, per, bestHist, fails
}

// RenderSizeCurves formats one panel as a table plus an ASCII chart.
//
//bimode:deterministic
func RenderSizeCurves(c SizeCurves) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: misprediction rate (%%) vs predictor size\n\n", c.Workload)
	fmt.Fprintf(&b, "%-12s", "size")
	for _, cost := range c.GshareCost {
		fmt.Fprintf(&b, "%8s", kb(cost))
	}
	b.WriteString("\n")
	row := func(name string, ys []float64) {
		fmt.Fprintf(&b, "%-12s", name)
		for _, y := range ys {
			b.WriteString(fmtRate(8, y))
		}
		b.WriteString("\n")
	}
	row("gshare.1PHT", c.Gshare1PHT)
	row("gshare.best", c.GshareBest)
	fmt.Fprintf(&b, "%-12s", "  (bi-mode at")
	for _, cost := range c.BiModeCost {
		fmt.Fprintf(&b, "%8s", kb(cost))
	}
	b.WriteString(")\n")
	row("bi-mode", c.BiMode)
	b.WriteString("\n")

	labels := make([]string, len(c.GshareCost))
	for i, cost := range c.GshareCost {
		labels[i] = kb(cost)
	}
	pct := func(ys []float64) []float64 {
		out := make([]float64, len(ys))
		for i, y := range ys {
			out[i] = 100 * y
		}
		return out
	}
	chart := textplot.Chart{
		Title:   c.Workload,
		XLabels: labels,
		YLabel:  "mispredict % (bi-mode point costs 1.5x its column's gshare size)",
		Series: []textplot.Series{
			{Name: "gshare.1PHT", Y: pct(c.Gshare1PHT)},
			{Name: "gshare.best", Y: pct(c.GshareBest)},
			{Name: "bi-mode", Y: pct(c.BiMode)},
		},
	}
	b.WriteString(chart.Render())
	return b.String()
}

// fmtRate renders one table cell of width characters: the
// fixed-precision percentage for a measured point, a right-aligned "--"
// gap for a NaN (failed) cell. Healthy cells are byte-identical to the
// historical "%<width>.2f" rendering, so goldens only change where cells
// actually failed.
func fmtRate(width int, y float64) string {
	if math.IsNaN(y) {
		return fmt.Sprintf("%*s", width, "--")
	}
	return fmt.Sprintf("%*.2f", width, 100*y)
}

// RenderFootnotes renders the failed-cell annotations of a sweep as a
// footnote block for the figure artifacts, or "" when the sweep was
// clean. Each failure is one bullet, in sweep order.
//
//bimode:deterministic
func RenderFootnotes(failures []string) string {
	if len(failures) == 0 {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%d cell(s) did not complete; gaps (--) mark them above:\n", len(failures))
	for _, f := range failures {
		fmt.Fprintf(&b, "  [!] %s\n", f)
	}
	return b.String()
}

// CostAdvantage estimates the paper's headline cost claim from a panel:
// the largest factor by which gshare.best must outsize bi-mode to reach
// the same misprediction rate, over the upper half of the size axis.
// When bi-mode's rate is below anything gshare.best achieves in range,
// the largest swept gshare cost is used, so the result is a lower bound
// (lowerBound reports that).
func CostAdvantage(c SizeCurves) (factor float64, lowerBound bool) {
	maxCost := c.GshareCost[len(c.GshareCost)-1]
	minRate := math.Inf(1)
	for _, r := range c.GshareBest {
		minRate = math.Min(minRate, r)
	}
	bestAt := func(rate float64) (float64, bool) {
		// Interpolate gshare.best's cost at the given rate (log-cost,
		// linear-rate interpolation).
		for i := 0; i+1 < len(c.GshareBest); i++ {
			r0, r1 := c.GshareBest[i], c.GshareBest[i+1]
			if (rate <= r0 && rate >= r1) || (rate >= r0 && rate <= r1) {
				if r0 == r1 {
					return c.GshareCost[i], false
				}
				t := (rate - r0) / (r1 - r0)
				return math.Exp(math.Log(c.GshareCost[i])*(1-t) + math.Log(c.GshareCost[i+1])*t), false
			}
		}
		// Off the bottom of the curve: gshare.best never gets this good
		// in range.
		if rate < minRate {
			return maxCost, true
		}
		return math.NaN(), false
	}
	worst := math.NaN()
	for i := len(c.BiMode) / 2; i < len(c.BiMode); i++ {
		g, lb := bestAt(c.BiMode[i])
		if math.IsNaN(g) {
			continue
		}
		f := g / c.BiModeCost[i]
		if math.IsNaN(worst) || f > worst {
			worst = f
			lowerBound = lb
		}
	}
	return worst, lowerBound
}
