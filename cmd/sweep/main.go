// Command sweep runs size sweeps in the style of the paper's Figures 2-4
// for an arbitrary set of schemes, printing a rate-vs-size table per
// workload and a suite average.
//
// Usage:
//
//	sweep -w gcc,go,vortex -min 10 -max 15
//	sweep -w all-spec -schemes bimode,gshare1,gsharebest,smith,agree,gskew,yags
//	sweep -w gcc -n 3000000
//	sweep -checkpoint sweep.ckpt            # interrupt, then:
//	sweep -checkpoint sweep.ckpt -resume
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/experiments"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/workloads"
)

// scheme builds a predictor at a given size point (2^s counters of
// gshare-equivalent budget); its cost column is predictor.CostBytes of
// what mk builds.
type scheme struct {
	name string
	mk   func(s int) predictor.Predictor
	// sweep marks schemes that need the per-size gshare.best search; mk
	// then builds the single-PHT gshare of the same size, whose cost
	// every configuration the search tries shares.
	sweep bool
}

func schemes() map[string]scheme {
	gshare := func(s int) predictor.Predictor { return baselines.NewGshare(s, s) }
	return map[string]scheme{
		"gshare1":    {name: "gshare.1PHT", mk: gshare},
		"gsharebest": {name: "gshare.best", mk: gshare, sweep: true},
		"bimode": {
			name: "bi-mode",
			mk:   func(s int) predictor.Predictor { return core.MustNew(core.DefaultConfig(s - 1)) },
		},
		"smith": {
			name: "smith",
			mk:   func(s int) predictor.Predictor { return baselines.NewSmith(s) },
		},
		"agree": {
			name: "agree",
			mk:   func(s int) predictor.Predictor { return baselines.NewAgree(s, s, s-2) },
		},
		"gskew": {
			name: "e-gskew",
			mk:   func(s int) predictor.Predictor { return baselines.NewGskew(s-1, s-1, true) },
		},
		"yags": {
			name: "yags",
			mk:   func(s int) predictor.Predictor { return baselines.NewYAGS(s-1, s-2, s-2, 6) },
		},
		"trimode": {
			name: "tri-mode",
			mk:   func(s int) predictor.Predictor { return core.MustNewTriMode(core.DefaultConfig(s - 2)) },
		},
		"filter": {
			name: "filter",
			mk:   func(s int) predictor.Predictor { return baselines.NewFilter(s, s, s-2, 32) },
		},
		"gag": {
			name: "GAg",
			mk:   func(s int) predictor.Predictor { return baselines.NewGAg(s) },
		},
		"pag": {
			name: "PAg",
			mk:   func(s int) predictor.Predictor { return baselines.NewPAg(10, s) },
		},
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	var (
		wl         = fs.String("w", "all-spec", "workloads: comma list, or all-spec / all-ibs / all")
		schemeL    = fs.String("schemes", "gshare1,gsharebest,bimode", "comma list of schemes: gshare1,gsharebest,bimode,trimode,filter,smith,agree,gskew,yags,gag,pag")
		minBits    = fs.Int("min", 10, "log2 of the smallest gshare-equivalent counter count")
		maxBits    = fs.Int("max", 17, "log2 of the largest")
		dynamic    = fs.Int("n", 0, "dynamic branches per workload (0 = calibrated default)")
		parallel   = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the sweep grid (0 = sequential reference path)")
		checkpoint = fs.String("checkpoint", "", "journal completed cells to this file; rerun with -resume to continue a killed run")
		resume     = fs.Bool("resume", false, "resume from the -checkpoint file instead of truncating it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *minBits < 4 || *maxBits > 24 || *minBits > *maxBits {
		return fmt.Errorf("size range [%d,%d] invalid", *minBits, *maxBits)
	}
	// Workload generation runs through the scheduler too; a cancellation
	// there surfaces as a panic from the Must-materialization, which we
	// convert into the clean partial-exit the simulation path gets.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("sweep aborted: %v", r)
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	sched := sim.NewScheduler(*parallel).WithContext(ctx)
	if *checkpoint != "" {
		var j *sim.Journal
		if *resume {
			if j, err = sim.ResumeJournal(*checkpoint); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "sweep: resuming %s (%d completed cells cached)\n", *checkpoint, j.Cells())
		} else if j, err = sim.CreateJournal(*checkpoint); err != nil {
			return err
		}
		defer j.Close()
		sched = sched.WithJournal(j)
	}
	cfg := experiments.Config{Dynamic: *dynamic, Sched: sched}

	var sources []trace.Source
	switch *wl {
	case "all-spec":
		sources = experiments.SuiteSources(synth.SuiteSPEC, cfg)
	case "all-ibs":
		sources = experiments.SuiteSources(synth.SuiteIBS, cfg)
	case "all":
		sources = append(experiments.SuiteSources(synth.SuiteSPEC, cfg),
			experiments.SuiteSources(synth.SuiteIBS, cfg)...)
	default:
		for _, name := range strings.Split(*wl, ",") {
			src, err := workloads.Get(strings.TrimSpace(name), workloads.Options{Dynamic: *dynamic})
			if err != nil {
				return err
			}
			sources = append(sources, trace.Materialize(src))
		}
	}

	known := schemes()
	var sel []scheme
	for _, k := range strings.Split(*schemeL, ",") {
		sc, ok := known[strings.TrimSpace(k)]
		if !ok {
			return fmt.Errorf("unknown scheme %q", k)
		}
		sel = append(sel, sc)
	}

	// rate[scheme][size][workload]
	var fails []string
	for _, sc := range sel {
		fmt.Fprintf(out, "\n%s\n", sc.name)
		fmt.Fprintf(out, "%-12s", "workload")
		for s := *minBits; s <= *maxBits; s++ {
			fmt.Fprintf(out, "%9.3gK", predictor.CostBytes(sc.mk(s))/1024)
		}
		fmt.Fprintln(out)
		perSize := make([][]sim.Result, 0, *maxBits-*minBits+1)
		for s := *minBits; s <= *maxBits; s++ {
			if sc.sweep {
				best := sched.FindBestGshare(s, sources)
				perSize = append(perSize, best.PerWorkload)
				continue
			}
			s := s
			jobs := make([]sim.Job, len(sources))
			for i, src := range sources {
				jobs[i] = sim.Job{Make: func() predictor.Predictor { return sc.mk(s) }, Source: src}
			}
			perSize = append(perSize, sched.RunAll(jobs))
		}
		for j, results := range perSize {
			for _, r := range results {
				if r.Err != nil {
					fails = append(fails, fmt.Sprintf("%s @ %s, size 2^%d: %v", sc.name, r.Workload, *minBits+j, r.Err))
				}
			}
		}
		for i, src := range sources {
			fmt.Fprintf(out, "%-12s", src.Name())
			for j := range perSize {
				fmt.Fprint(out, cellText(perSize[j][i]))
			}
			fmt.Fprintln(out)
		}
		fmt.Fprintf(out, "%-12s", "AVERAGE")
		for j := range perSize {
			fmt.Fprint(out, avgText(perSize[j]))
		}
		fmt.Fprintln(out)
	}
	if len(fails) > 0 {
		fmt.Fprintf(out, "\n%s", experiments.RenderFootnotes(fails))
		return fmt.Errorf("%d cell(s) did not complete", len(fails))
	}
	return nil
}

// cellText renders one table cell, degrading a failed cell to an aligned
// gap instead of a bogus number.
func cellText(r sim.Result) string {
	if r.Err != nil {
		return fmt.Sprintf("%10s", "--")
	}
	return fmt.Sprintf("%10.2f", 100*r.MispredictRate())
}

// avgText renders a suite-average cell; any failed constituent makes the
// average NaN, rendered as a gap.
func avgText(results []sim.Result) string {
	avg := sim.AverageRate(results)
	if math.IsNaN(avg) {
		return fmt.Sprintf("%10s", "--")
	}
	return fmt.Sprintf("%10.2f", 100*avg)
}
