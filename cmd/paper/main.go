// Command paper regenerates every table and figure of the paper's
// evaluation section and writes the results to a directory (default
// ./results) as text reports and CSV series.
//
// A failed artifact (a canceled run, a damaged trace, a panicking cell)
// degrades instead of aborting: the other artifacts are still produced,
// the failures are written to footnotes.txt in the output directory, and
// the exit status is non-zero. With -checkpoint, an interrupted run can
// be resumed from where it was killed.
//
// Usage:
//
//	paper                  # everything, default scale (paper counts / 8)
//	paper -quick           # reduced dynamic budget for a fast smoke run
//	paper -only fig2,table4
//	paper -out mydir -n 3000000
//	paper -checkpoint paper.ckpt           # ^C partway, then:
//	paper -checkpoint paper.ckpt -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"bimode/internal/experiments"
	"bimode/internal/sim"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "paper:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("paper", flag.ContinueOnError)
	var (
		out        = fs.String("out", "results", "output directory")
		only       = fs.String("only", "", "comma-separated subset: table1,table2,fig2,fig3,fig4,table3,fig5,fig6,table4,fig7,fig8,rivals,programs,ctxswitch")
		dynamic    = fs.Int("n", 0, "override dynamic branches per workload (0 = calibrated defaults)")
		quick      = fs.Bool("quick", false, "fast smoke run (600k branches per workload)")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for simulation grids (0 = sequential reference path)")
		checkpoint = fs.String("checkpoint", "", "journal completed simulation cells to this file; rerun with -resume to continue a killed run")
		resume     = fs.Bool("resume", false, "resume from the -checkpoint file instead of truncating it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	sched := sim.NewScheduler(*parallel).WithContext(ctx)
	cfg := experiments.Config{Dynamic: *dynamic, Sched: sched}
	if *quick && *dynamic == 0 {
		cfg.Dynamic = 600000
	}
	if *checkpoint != "" {
		var j *sim.Journal
		var err error
		if *resume {
			if j, err = sim.ResumeJournal(*checkpoint); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "paper: resuming %s (%d completed cells cached)\n", *checkpoint, j.Cells())
		} else if j, err = sim.CreateJournal(*checkpoint); err != nil {
			return err
		}
		defer j.Close()
		cfg.Sched = sched.WithJournal(j)
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	want := map[string]bool{}
	if *only != "" {
		for _, k := range strings.Split(*only, ",") {
			want[strings.TrimSpace(k)] = true
		}
	}
	sel := func(k string) bool { return len(want) == 0 || want[k] }

	emit := func(name, content string) error {
		path := filepath.Join(*out, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			return err
		}
		fmt.Printf("==== %s ====\n%s\n", name, content)
		return nil
	}

	// artifact runs one generator with a degradation guard: an error or a
	// panic (a canceled sweep, an injected fault reaching a Must-
	// constructor) is annotated and the remaining artifacts still run.
	var fails []string
	artifact := func(name string, gen func() error) {
		defer func() {
			if r := recover(); r != nil {
				fails = append(fails, fmt.Sprintf("%s: %v", name, r))
				fmt.Fprintf(os.Stderr, "paper: [!] %s did not complete: %v\n", name, r)
			}
		}()
		if err := gen(); err != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", name, err))
			fmt.Fprintf(os.Stderr, "paper: [!] %s did not complete: %v\n", name, err)
		}
	}

	start := time.Now()

	if sel("table1") {
		artifact("table1", func() error {
			return emit("table1.txt", experiments.RenderTable1(experiments.Table1()))
		})
	}
	if sel("table2") {
		artifact("table2", func() error {
			return emit("table2.txt", experiments.RenderTable2(experiments.Table2(cfg)))
		})
	}

	if sel("fig2") || sel("fig3") || sel("fig4") {
		artifact("figures2-4", func() error {
			fmt.Fprintf(os.Stderr, "paper: running Figures 2-4 sweep (every gshare history length x every size x 14 benchmarks)...\n")
			f := experiments.Figures234(cfg)
			// Failed cells render as gaps with a footnote on each affected
			// figure; they also count against the run's exit status.
			fails = append(fails, f.Failures...)
			notes := experiments.RenderFootnotes(f.Failures)
			if sel("fig2") {
				var b strings.Builder
				b.WriteString(experiments.RenderSizeCurves(f.SPECAvg))
				b.WriteString("\n")
				b.WriteString(experiments.RenderSizeCurves(f.IBSAvg))
				b.WriteString("\ngshare.best history bits per size:\n")
				fmt.Fprintf(&b, "  SPEC: %v\n  IBS:  %v\n  (sizes 2^%v counters)\n",
					f.BestHistorySPEC, f.BestHistoryIBS, f.SizeBits)
				fmt.Fprintf(&b, "\ncost advantage of bi-mode over gshare.best at equal accuracy (upper half of axis):\n")
				fmt.Fprintf(&b, "  SPEC: %s   IBS: %s\n",
					formatAdvantage(experiments.CostAdvantage(f.SPECAvg)),
					formatAdvantage(experiments.CostAdvantage(f.IBSAvg)))
				b.WriteString(notes)
				if err := emit("figure2.txt", b.String()); err != nil {
					return err
				}
				if err := emit("figure2.csv", experiments.CurvesCSV(append([]experiments.SizeCurves{f.SPECAvg}, f.IBSAvg))); err != nil {
					return err
				}
			}
			if sel("fig3") {
				var b strings.Builder
				for _, c := range f.SPEC {
					b.WriteString(experiments.RenderSizeCurves(c))
					b.WriteString("\n")
				}
				b.WriteString(notes)
				if err := emit("figure3.txt", b.String()); err != nil {
					return err
				}
				if err := emit("figure3.csv", experiments.CurvesCSV(f.SPEC)); err != nil {
					return err
				}
			}
			if sel("fig4") {
				var b strings.Builder
				for _, c := range f.IBS {
					b.WriteString(experiments.RenderSizeCurves(c))
					b.WriteString("\n")
				}
				b.WriteString(notes)
				if err := emit("figure4.txt", b.String()); err != nil {
					return err
				}
				if err := emit("figure4.csv", experiments.CurvesCSV(f.IBS)); err != nil {
					return err
				}
			}
			return nil
		})
	}

	if sel("fig5") {
		artifact("fig5", func() error {
			hist, addr, err := experiments.Figure5("gcc", cfg)
			if err != nil {
				return err
			}
			content := experiments.RenderBreakdown(hist) + "\n" + experiments.RenderBreakdown(addr)
			if err := emit("figure5.txt", content); err != nil {
				return err
			}
			return emit("figure5.csv", experiments.BreakdownCSV(hist, addr))
		})
	}
	if sel("fig6") {
		artifact("fig6", func() error {
			bm, err := experiments.Figure6("gcc", cfg)
			if err != nil {
				return err
			}
			return emit("figure6.txt", experiments.RenderBreakdown(bm))
		})
	}
	if sel("table3") {
		artifact("table3", func() error {
			ex, err := experiments.Table3("gcc", cfg)
			if err != nil {
				return err
			}
			return emit("table3.txt", experiments.RenderTable3(ex))
		})
	}
	if sel("table4") {
		artifact("table4", func() error {
			t, err := experiments.Table4("gcc", cfg)
			if err != nil {
				return err
			}
			return emit("table4.txt", experiments.RenderTable4(t))
		})
	}
	if sel("fig7") {
		artifact("fig7", func() error {
			pts, err := experiments.Figures78("gcc", cfg)
			if err != nil {
				return err
			}
			if err := emit("figure7.txt", experiments.RenderFigures78("gcc", pts)); err != nil {
				return err
			}
			return emit("figure7.csv", experiments.ClassBreakdownCSV("gcc", pts))
		})
	}
	if sel("programs") {
		artifact("programs", func() error {
			res, err := experiments.ProgramsCrossCheck(cfg)
			if err != nil {
				return err
			}
			return emit("programs.txt", experiments.RenderProgramsCrossCheck(res))
		})
	}
	if sel("ctxswitch") {
		artifact("ctxswitch", func() error {
			rows, err := experiments.ContextSwitch("gcc", "sdet", 500, cfg)
			if err != nil {
				return err
			}
			return emit("ctxswitch.txt", experiments.RenderContextSwitch("gcc", "sdet", 500, rows))
		})
	}
	if sel("rivals") {
		artifact("rivals", func() error {
			rows := experiments.Rivals(cfg)
			if err := emit("rivals.txt", experiments.RenderRivals(rows)); err != nil {
				return err
			}
			// A failed cell makes its suite average NaN, a gap in the
			// table; it counts against the run like any failed artifact.
			gaps := 0
			for _, row := range rows {
				for _, p := range row {
					if math.IsNaN(p.SPECRate) || math.IsNaN(p.IBSRate) {
						gaps++
					}
				}
			}
			if gaps > 0 {
				return fmt.Errorf("%d scheme/size point(s) have a failed cell; gaps (--) mark their suite averages", gaps)
			}
			return nil
		})
	}
	if sel("fig8") {
		artifact("fig8", func() error {
			pts, err := experiments.Figures78("go", cfg)
			if err != nil {
				return err
			}
			if err := emit("figure8.txt", experiments.RenderFigures78("go", pts)); err != nil {
				return err
			}
			return emit("figure8.csv", experiments.ClassBreakdownCSV("go", pts))
		})
	}

	fmt.Fprintf(os.Stderr, "paper: done in %v\n", time.Since(start).Round(time.Second))
	if len(fails) > 0 {
		notePath := filepath.Join(*out, "footnotes.txt")
		if werr := os.WriteFile(notePath, []byte(experiments.RenderFootnotes(fails)), 0o644); werr != nil {
			return fmt.Errorf("%d artifact(s) did not complete (and writing %s failed: %v)", len(fails), notePath, werr)
		}
		return fmt.Errorf("%d artifact(s) did not complete; see %s", len(fails), notePath)
	}
	return nil
}

// formatAdvantage renders a CostAdvantage result, marking lower bounds
// (bi-mode better than anything gshare.best achieves in the swept range).
func formatAdvantage(factor float64, lowerBound bool) string {
	if lowerBound {
		return fmt.Sprintf(">= %.2fx", factor)
	}
	return fmt.Sprintf("%.2fx", factor)
}
