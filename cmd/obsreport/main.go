// Command obsreport runs predictors through the instrumented simulation
// tier (sim.Observe) and renders the resulting sim.Reports: the aliasing
// breakdown behind the paper's Section 4 argument (destructive / neutral /
// constructive), choice-vs-bank agreement for bi-mode-family predictors,
// the hardest-to-predict static branches (H2P top-N), and engine
// throughput. The report bundle can be written as JSON for archival and
// regression diffing, and -http exposes expvar (/debug/vars, including
// the sim_observed_* counters) and pprof endpoints while it runs.
//
// Usage:
//
//	obsreport -w gcc -p 'bimode:b=10,gshare:i=11;h=11'
//	obsreport -w all-spec -p bimode:b=9 -n 200000 -o report.json
//	obsreport -w go -p trimode:b=9 -http localhost:6060
package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"bimode/internal/experiments"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/textplot"
	"bimode/internal/trace"
	"bimode/internal/workloads"
	"bimode/internal/zoo"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:], os.Stdout)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "obsreport:", err)
		os.Exit(1)
	}
}

// Bundle is the JSON document -o writes: every completed report of the
// invocation, plus one annotation per (spec, workload) cell that failed.
type Bundle struct {
	Reports []sim.Report `json:"reports"`
	Errors  []string     `json:"errors,omitempty"`
}

func run(ctx context.Context, args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("obsreport", flag.ContinueOnError)
	var (
		wl       = fs.String("w", "gcc", "workloads: comma list, or all-spec / all-ibs")
		specsArg = fs.String("p", "bimode:b=10,gshare:i=11;h=11", "comma-separated predictor specs (use ';' for spec-internal separators)")
		dynamic  = fs.Int("n", 0, "dynamic branches per workload (0 = calibrated default)")
		topN     = fs.Int("top", 10, "H2P ranking length per report")
		parallel = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the report grid (0 = sequential reference path)")
		outFile  = fs.String("o", "", "write the report bundle as JSON to this file")
		httpAddr = fs.String("http", "", "serve expvar/pprof debug endpoints on this address while running (e.g. localhost:6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	// Suite workload generation panics through a Must-materialization on
	// cancellation; degrade that to a clean error like any failed cell.
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("obsreport aborted: %v", r)
		}
	}()

	if *httpAddr != "" {
		ln, err := startDebugServer(*httpAddr)
		if err != nil {
			return err
		}
		defer ln.Close()
		fmt.Fprintf(out, "debug endpoints at http://%s/debug/vars and /debug/pprof/\n\n", ln.Addr())
	}

	sched := sim.NewScheduler(*parallel).WithContext(ctx)
	cfg := experiments.Config{Dynamic: *dynamic, Sched: sched}
	var sources []trace.Source
	switch *wl {
	case "all-spec":
		sources = experiments.SuiteSources(synth.SuiteSPEC, cfg)
	case "all-ibs":
		sources = experiments.SuiteSources(synth.SuiteIBS, cfg)
	default:
		for _, name := range strings.Split(*wl, ",") {
			src, err := workloads.Get(strings.TrimSpace(name), workloads.Options{Dynamic: *dynamic})
			if err != nil {
				return err
			}
			sources = append(sources, trace.Materialize(src))
		}
	}

	var specs []string
	for _, raw := range strings.Split(*specsArg, ",") {
		spec := strings.ReplaceAll(strings.TrimSpace(raw), ";", ",")
		if spec == "" {
			continue
		}
		if _, err := zoo.New(spec); err != nil {
			return err
		}
		specs = append(specs, spec)
	}
	if len(specs) == 0 {
		return fmt.Errorf("no specs to run")
	}

	// Collect the (spec, workload) grid through the scheduler into indexed
	// slots, then render in grid order — output is identical at any -parallel.
	// A failed cell (cancellation, panic) degrades to an annotated
	// gap; the completed reports still render and the bundle records the
	// failures instead of the whole invocation aborting.
	grid := make([]sim.Report, len(specs)*len(sources))
	errs := sched.DoContext(len(grid), func(ctx context.Context, k int) error {
		spec, src := specs[k/len(sources)], sources[k%len(sources)]
		rep, err := sim.ObserveContext(ctx, zoo.MustNew(spec), src, sim.ObserveOptions{TopN: *topN})
		if err != nil {
			return err
		}
		grid[k] = *rep
		return nil
	})
	var bundle Bundle
	for k := range grid {
		if errs[k] != nil {
			spec, src := specs[k/len(sources)], sources[k%len(sources)]
			bundle.Errors = append(bundle.Errors, fmt.Sprintf("%s on %s: %v", spec, src.Name(), errs[k]))
			continue
		}
		bundle.Reports = append(bundle.Reports, grid[k])
	}
	for i := range bundle.Reports {
		renderReport(out, &bundle.Reports[i])
	}
	if len(bundle.Errors) > 0 {
		fmt.Fprint(out, experiments.RenderFootnotes(bundle.Errors))
	}
	renderCounters(out)

	if *outFile != "" {
		data, err := json.MarshalIndent(bundle, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if err := os.WriteFile(*outFile, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "wrote %d reports to %s\n", len(bundle.Reports), *outFile)
	}
	if len(bundle.Errors) > 0 {
		return fmt.Errorf("%d of %d reports did not complete", len(bundle.Errors), len(grid))
	}
	return nil
}

// renderCounters prints the scheduler expvars, so a terminal run
// surfaces the same runtime counters -http exposes at /debug/vars.
func renderCounters(out io.Writer) {
	fmt.Fprintf(out, "runtime counters:")
	for _, name := range []string{
		"sim_sched_jobs_inflight", "sim_sched_jobs_completed",
		"sim_sched_cancelled",
	} {
		val := "0"
		if v := expvar.Get(name); v != nil {
			val = v.String()
		}
		fmt.Fprintf(out, " %s=%s", strings.TrimPrefix(name, "sim_"), val)
	}
	fmt.Fprintln(out)
}

// renderReport draws one report for a terminal.
func renderReport(out io.Writer, r *sim.Report) {
	fmt.Fprintf(out, "%s on %s: %d branches (%d static), %.2f%% mispredict, %.1f Mbr/s instrumented\n",
		r.Predictor, r.Workload, r.Branches, r.StaticBranches,
		100*r.MispredictRate, r.BranchesPerSec/1e6)

	if m := r.Interference; m != nil && r.Branches > 0 {
		n := float64(r.Branches)
		fmt.Fprintf(out, "aliasing over %d counters (shares of all accesses; %.1f%% aliased, %.1f%% cold):\n",
			m.Counters, 100*float64(m.Aliased)/n, 100*float64(m.Cold)/n)
		fmt.Fprintln(out, textplot.Bar("destructive", float64(m.Destructive)/n, 40))
		fmt.Fprintln(out, textplot.Bar("neutral", float64(m.Neutral)/n, 40))
		fmt.Fprintln(out, textplot.Bar("constructive", float64(m.Constructive)/n, 40))
	}
	if c := r.Choice; c != nil && c.Branches > 0 {
		n := float64(c.Branches)
		fmt.Fprintf(out, "choice: agrees with outcome %.1f%%, prediction follows choice %.1f%%, partial-update holds %.1f%%\n",
			100*float64(c.AgreeOutcome)/n, 100*float64(c.PredictionAgrees)/n, 100*float64(c.PartialHold)/n)
		if len(c.BankUse) > 0 {
			fmt.Fprintf(out, "bank use:")
			for b, cnt := range c.BankUse {
				fmt.Fprintf(out, " bank%d=%.1f%%", b, 100*float64(cnt)/n)
			}
			fmt.Fprintln(out)
		}
	}
	if len(r.TopBranches) > 0 {
		fmt.Fprintf(out, "hardest branches (%.1f%% of all mispredictions):\n", 100*r.TopShare)
		for _, b := range r.TopBranches {
			fmt.Fprintf(out, "  pc=0x%-10x static=%-6d count=%-8d taken=%-8d miss=%-8d rate=%5.1f%%\n",
				b.PC, b.Static, b.Count, b.Taken, b.Mispredicts, 100*b.MissRate)
		}
	}
	fmt.Fprintln(out)
}

// startDebugServer serves http.DefaultServeMux — where net/http/pprof and
// expvar register themselves — on addr until the listener closes.
func startDebugServer(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: http.DefaultServeMux}
	go srv.Serve(ln)
	return ln, nil
}
