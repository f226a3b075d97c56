package experiments

import (
	"fmt"
	"strings"

	"bimode/internal/analysis"
	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/textplot"
)

// BiasBreakdown is the data behind one panel of Figures 5 or 6: the
// per-counter dominant / non-dominant / WB fractions, sorted by WB
// fraction, plus the aggregate area shares.
type BiasBreakdown struct {
	Scheme   string
	Workload string
	// Counters holds (dominant, nonDominant, wb) fraction triples in the
	// figure's x order.
	Counters [][3]float64
	// DominantArea, NonDominantArea and WBArea are the aggregate shares.
	DominantArea, NonDominantArea, WBArea float64
	// Study retains the full analysis for further inspection.
	Study *analysis.Study
}

func newBreakdown(st *analysis.Study) BiasBreakdown {
	b := BiasBreakdown{Scheme: st.Predictor, Workload: st.Workload, Study: st}
	for _, cb := range st.SortedByWB() {
		d, nd, w := cb.Fractions()
		b.Counters = append(b.Counters, [3]float64{d, nd, w})
	}
	b.DominantArea, b.NonDominantArea, b.WBArea = st.AreaShares()
	return b
}

// Figure5 reproduces the paper's Figure 5 on the given workload
// (canonically gcc): bias breakdowns of a 256-counter gshare indexed with
// 8 bits of history ("history-indexed") and with 2 bits of history
// ("address-indexed").
func Figure5(workload string, cfg Config) (history, address BiasBreakdown, err error) {
	src, err := Workload(workload, cfg)
	if err != nil {
		return BiasBreakdown{}, BiasBreakdown{}, err
	}
	ps := []predictor.Predictor{baselines.NewGshare(8, 8), baselines.NewGshare(8, 2)}
	studies := make([]*analysis.Study, len(ps))
	if err := firstErr(cfg.sched().Do(len(ps), func(i int) error {
		st, err := analysis.RunStudy(ps[i], src)
		studies[i] = st
		return err
	})); err != nil {
		return BiasBreakdown{}, BiasBreakdown{}, err
	}
	return newBreakdown(studies[0]), newBreakdown(studies[1]), nil
}

// Figure6 reproduces Figure 6: the bias breakdown of the bi-mode scheme
// with a 128-counter choice predictor and two 128-counter direction banks.
func Figure6(workload string, cfg Config) (BiasBreakdown, error) {
	src, err := Workload(workload, cfg)
	if err != nil {
		return BiasBreakdown{}, err
	}
	st, err := analysis.RunStudy(core.MustNew(core.DefaultConfig(7)), src)
	if err != nil {
		return BiasBreakdown{}, err
	}
	return newBreakdown(st), nil
}

// RenderBreakdown formats a bias breakdown as area shares plus a compact
// per-decile profile of the sorted counters.
//
//bimode:deterministic
func RenderBreakdown(b BiasBreakdown) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s on %s — bias breakdown over %d counters\n",
		b.Scheme, b.Workload, len(b.Counters))
	sb.WriteString(textplot.Bar("dominant", b.DominantArea, 40) + "\n")
	sb.WriteString(textplot.Bar("non-dominant", b.NonDominantArea, 40) + "\n")
	sb.WriteString(textplot.Bar("WB", b.WBArea, 40) + "\n")
	sb.WriteString("per-decile WB / non-dominant fractions along the sorted counter axis:\n  ")
	n := len(b.Counters)
	for d := 0; d < 10 && n > 0; d++ {
		lo, hi := d*n/10, (d+1)*n/10
		if hi == lo {
			continue
		}
		var wb, nd float64
		for _, c := range b.Counters[lo:hi] {
			nd += c[1]
			wb += c[2]
		}
		fmt.Fprintf(&sb, "%2.0f/%2.0f ", 100*wb/float64(hi-lo), 100*nd/float64(hi-lo))
	}
	sb.WriteString("\n")
	return sb.String()
}

// Table3 reproduces the worked normalized-count example on the most
// contended counter of the history-indexed gshare from Figure 5.
func Table3(workload string, cfg Config) (analysis.CounterExample, error) {
	src, err := Workload(workload, cfg)
	if err != nil {
		return analysis.CounterExample{}, err
	}
	st, err := analysis.RunStudy(baselines.NewGshare(8, 8), src)
	if err != nil {
		return analysis.CounterExample{}, err
	}
	ex, ok := analysis.FindExample(st)
	if !ok {
		return analysis.CounterExample{}, fmt.Errorf("experiments: workload %s produced no branches", workload)
	}
	return ex, nil
}

// RenderTable3 formats the counter example like the paper's Table 3.
//
//bimode:deterministic
func RenderTable3(ex analysis.CounterExample) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 3: normalized counts at counter %d (most destructive aliasing)\n\n", ex.Counter)
	fmt.Fprintf(&b, "%-12s %10s %10s %6s %12s\n", "branch PC", "count", "taken", "class", "normalized")
	rows := ex.Rows
	if len(rows) > 12 {
		rows = rows[:12]
	}
	for _, r := range rows {
		fmt.Fprintf(&b, "0x%-10x %10d %10d %6s %11.1f%%\n",
			r.PC, r.Count, r.Taken, r.Class, 100*r.Normalized)
	}
	fmt.Fprintf(&b, "\ndominant class %s holds %.1f%% of accesses; WB holds %.1f%%\n",
		ex.DominantClass, 100*ex.DominantShare, 100*ex.WBShare)
	return b.String()
}

// Table4Result compares bias-class interruption counts between the
// history-indexed gshare and the bi-mode scheme (the paper's Table 4).
type Table4Result struct {
	Workload string
	// HistoryIndexed and BiMode hold interruption counts indexed by
	// analysis.CatDominant/CatNonDominant/CatWB.
	HistoryIndexed, BiMode [3]int
	// Branches is the dynamic branch count, for rate context.
	Branches int
}

// Table4 runs the interruption-count comparison.
func Table4(workload string, cfg Config) (Table4Result, error) {
	src, err := Workload(workload, cfg)
	if err != nil {
		return Table4Result{}, err
	}
	ps := []predictor.Predictor{baselines.NewGshare(8, 8), core.MustNew(core.DefaultConfig(7))}
	studies := make([]*analysis.Study, len(ps))
	if err := firstErr(cfg.sched().Do(len(ps), func(i int) error {
		st, err := analysis.RunStudy(ps[i], src)
		studies[i] = st
		return err
	})); err != nil {
		return Table4Result{}, err
	}
	return Table4Result{
		Workload:       workload,
		HistoryIndexed: studies[0].Interruptions,
		BiMode:         studies[1].Interruptions,
		Branches:       studies[0].Branches,
	}, nil
}

// RenderTable4 formats the interruption comparison.
//
//bimode:deterministic
func RenderTable4(t Table4Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 4: bias-class interruption counts on %s (%d branches)\n\n", t.Workload, t.Branches)
	fmt.Fprintf(&b, "%-16s %12s %12s %12s %12s\n", "scheme", "dominant", "non-dominant", "WB", "total")
	row := func(name string, c [3]int) {
		fmt.Fprintf(&b, "%-16s %12d %12d %12d %12d\n", name, c[0], c[1], c[2], c[0]+c[1]+c[2])
	}
	row("history-indexed", t.HistoryIndexed)
	row("bi-mode", t.BiMode)
	return b.String()
}

// ClassBreakdownPoint is one bar of Figures 7-8: one scheme at one size,
// with misprediction attributed to the three bias classes.
type ClassBreakdownPoint struct {
	// Label matches the paper's bar labels, e.g. "gshare(8)" or
	// "bi-mode(7)".
	Label string
	// Counters is the total second-level counter count.
	Counters int
	// SNT, ST and WB are misprediction contributions as fractions of all
	// branches; their sum is the scheme's misprediction rate.
	SNT, ST, WB float64
}

// Figures78 reproduces the misprediction-by-class comparison (Figure 7
// for gcc, Figure 8 for go): at 256, 1K and 32K second-level counters it
// compares an address-indexed gshare (few history bits), a history-
// indexed gshare (full history), and the bi-mode scheme whose direction
// banks total the same counter count.
func Figures78(workload string, cfg Config) ([]ClassBreakdownPoint, error) {
	src, err := Workload(workload, cfg)
	if err != nil {
		return nil, err
	}
	// (size log2, few-history bits) pairs per the paper's bar labels. The
	// nine studies are independent; they fan out through cfg's scheduler
	// with the output order fixed by the bar list, not by completion.
	sizes := []struct{ s, few int }{{8, 2}, {10, 4}, {15, 7}}
	type bar struct {
		label    string
		counters int
		p        predictor.Predictor
	}
	var bars []bar
	for _, sz := range sizes {
		bars = append(bars,
			bar{fmt.Sprintf("gshare(%d)", sz.few), 1 << uint(sz.s), baselines.NewGshare(sz.s, sz.few)},
			bar{fmt.Sprintf("gshare(%d)", sz.s), 1 << uint(sz.s), baselines.NewGshare(sz.s, sz.s)},
			bar{fmt.Sprintf("bi-mode(%d)", sz.s-1), 1 << uint(sz.s), core.MustNew(core.DefaultConfig(sz.s - 1))},
		)
	}
	out := make([]ClassBreakdownPoint, len(bars))
	if err := firstErr(cfg.sched().Do(len(bars), func(i int) error {
		st, err := analysis.RunStudy(bars[i].p, src)
		if err != nil {
			return err
		}
		out[i] = ClassBreakdownPoint{
			Label:    bars[i].label,
			Counters: bars[i].counters,
			SNT:      st.ClassRate(analysis.SNT),
			ST:       st.ClassRate(analysis.ST),
			WB:       st.ClassRate(analysis.WB),
		}
		return nil
	})); err != nil {
		return nil, err
	}
	return out, nil
}

// RenderFigures78 formats the class breakdown bars.
//
//bimode:deterministic
func RenderFigures78(workload string, pts []ClassBreakdownPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Misprediction by bias class on %s (%% of all branches)\n\n", workload)
	fmt.Fprintf(&b, "%-10s %-14s %8s %8s %8s %8s\n", "counters", "scheme", "SNT", "ST", "WB", "total")
	for _, p := range pts {
		fmt.Fprintf(&b, "%-10d %-14s %8.2f %8.2f %8.2f %8.2f\n",
			p.Counters, p.Label, 100*p.SNT, 100*p.ST, 100*p.WB, 100*(p.SNT+p.ST+p.WB))
	}
	return b.String()
}
