// Command biasstudy runs the Section 4 bias-class analysis for one
// predictor over one workload: area shares (Figures 5-6), the most
// contended counter's normalized counts (Table 3), bias-class
// interruption counts (Table 4), and misprediction attributed to each
// class (Figures 7-8).
//
// Usage:
//
//	biasstudy -w gcc -p 'gshare:i=8,h=8'
//	biasstudy -w go -p 'bimode:b=9' -n 2000000
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"bimode/internal/analysis"
	"bimode/internal/textplot"
	"bimode/internal/workloads"
	"bimode/internal/zoo"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "biasstudy:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("biasstudy", flag.ContinueOnError)
	var (
		wl      = fs.String("w", "gcc", "workload name")
		spec    = fs.String("p", "gshare:i=8,h=8", "predictor spec (must expose counter indices)")
		dynamic = fs.Int("n", 0, "dynamic branches (0 = calibrated default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	src, err := workloads.Get(*wl, workloads.Options{Dynamic: *dynamic})
	if err != nil {
		return err
	}
	p, err := zoo.New(*spec)
	if err != nil {
		return err
	}
	study, err := analysis.RunStudy(p, src)
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "%s on %s: %d branches, %.2f%% mispredict, %d counters touched, %d substreams\n\n",
		study.Predictor, study.Workload, study.Branches,
		100*study.MispredictRate(), len(study.Counters), len(study.Substreams))

	d, nd, w := study.AreaShares()
	fmt.Fprintln(out, "bias breakdown (dynamic-weighted area shares, cf. Figures 5-6):")
	fmt.Fprintln(out, textplot.Bar("dominant", d, 40))
	fmt.Fprintln(out, textplot.Bar("non-dominant", nd, 40))
	fmt.Fprintln(out, textplot.Bar("WB", w, 40))

	fmt.Fprintln(out, "\nmisprediction by bias class (cf. Figures 7-8):")
	for _, c := range []analysis.Class{analysis.SNT, analysis.ST, analysis.WB} {
		fmt.Fprintln(out, textplot.Bar(c.String(), study.ClassRate(c), 40))
	}

	fmt.Fprintf(out, "\nbias-class interruptions (cf. Table 4): dominant=%d non-dominant=%d WB=%d\n",
		study.Interruptions[analysis.CatDominant],
		study.Interruptions[analysis.CatNonDominant],
		study.Interruptions[analysis.CatWB])

	if ex, ok := analysis.FindExample(study); ok {
		fmt.Fprintf(out, "\nmost contended counter (cf. Table 3): counter %d, dominant %s %.1f%%, WB %.1f%%\n",
			ex.Counter, ex.DominantClass, 100*ex.DominantShare, 100*ex.WBShare)
		rows := ex.Rows
		if len(rows) > 8 {
			rows = rows[:8]
		}
		for _, r := range rows {
			fmt.Fprintf(out, "  pc=0x%-8x count=%-8d taken=%-8d class=%-4s normalized=%5.1f%%\n",
				r.PC, r.Count, r.Taken, r.Class, 100*r.Normalized)
		}
	}
	return nil
}
