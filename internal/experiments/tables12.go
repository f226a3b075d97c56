package experiments

import (
	"fmt"
	"strings"

	"bimode/internal/synth"
	"bimode/internal/trace"
)

// Table1Row documents the input standing in for one SPEC CINT95 input
// data file (the paper's Table 1), extended with the profile parameters
// that define the substitute workload.
type Table1Row struct {
	Benchmark  string
	PaperInput string
	Profile    synth.Profile
}

// Table1 returns the SPEC CINT95 input documentation rows.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, p := range synth.Profiles() {
		if p.Suite != synth.SuiteSPEC {
			continue
		}
		rows = append(rows, Table1Row{Benchmark: p.Name, PaperInput: p.InputNote, Profile: p})
	}
	return rows
}

// RenderTable1 formats Table 1 as text.
//
//bimode:deterministic
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1: SPEC CINT95 input data files (paper) and the synthetic profile standing in\n\n")
	fmt.Fprintf(&b, "%-10s %-28s %-48s\n", "benchmark", "paper input", "profile mix (loop/corr/pat/weak, seed)")
	for _, r := range rows {
		p := r.Profile
		fmt.Fprintf(&b, "%-10s %-28s %4.0f%%/%2.0f%%/%2.0f%%/%2.0f%%  seed=%#x\n",
			r.Benchmark, r.PaperInput,
			100*p.FracLoop, 100*p.FracCorrelated, 100*p.FracPattern, 100*p.FracWeak, p.Seed)
	}
	return b.String()
}

// Table2Row is one row of the paper's Table 2: static and dynamic
// conditional branch counts per benchmark.
type Table2Row struct {
	Suite string
	Stats trace.Stats
	// PaperStatic and PaperDynamic are the counts the paper reports, for
	// side-by-side comparison (dynamic counts are scaled by 1/8 in the
	// default configuration).
	PaperStatic, PaperDynamic int
}

// paperTable2 records the counts from the paper's Table 2.
var paperTable2 = map[string][2]int{
	"compress":   {482, 10114353},
	"gcc":        {16035, 26520618},
	"go":         {5112, 17873772},
	"xlisp":      {636, 25008567},
	"perl":       {1974, 39714684},
	"vortex":     {6599, 27792020},
	"groff":      {6333, 11901481},
	"gs":         {12852, 16307247},
	"mpeg_play":  {5598, 9566290},
	"nroff":      {5249, 22574884},
	"real_gcc":   {17361, 14309867},
	"sdet":       {5310, 5514439},
	"verilog":    {4636, 6212381},
	"video_play": {4606, 5759231},
}

// Table2 measures branch statistics for all fourteen benchmarks, in
// paper order, over the traces the SuiteSources memo holds.
func Table2(cfg Config) []Table2Row {
	var rows []Table2Row
	for _, suite := range []string{synth.SuiteSPEC, synth.SuiteIBS} {
		for _, src := range SuiteSources(suite, cfg) {
			paper := paperTable2[src.Name()]
			rows = append(rows, Table2Row{
				Suite:        suite,
				Stats:        trace.Collect(src),
				PaperStatic:  paper[0],
				PaperDynamic: paper[1],
			})
		}
	}
	return rows
}

// RenderTable2 formats Table 2 as text.
//
//bimode:deterministic
func RenderTable2(rows []Table2Row) string {
	var b strings.Builder
	b.WriteString("Table 2: static and dynamic conditional branch counts\n")
	b.WriteString("(dynamic counts are the paper's scaled by 1/8; static = sites that appeared)\n\n")
	fmt.Fprintf(&b, "%-12s %-12s %10s %10s %12s %12s %8s\n",
		"suite", "benchmark", "static", "paper", "dynamic", "paper/8", "taken%")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12s %-12s %10d %10d %12d %12d %7.1f%%\n",
			r.Suite, r.Stats.Name, r.Stats.StaticBranches, r.PaperStatic,
			r.Stats.DynamicBranches, r.PaperDynamic/8, 100*r.Stats.TakenRate())
	}
	return b.String()
}
