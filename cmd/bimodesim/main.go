// Command bimodesim runs one or more predictors over one or more workloads
// and prints the misprediction rate and hardware cost of every pairing.
//
// Usage:
//
//	bimodesim [-n branches] [-seed s] -w gcc,go -p bimode:b=11,gshare:i=12
//	bimodesim -w all -p bimode:b=14 -checkpoint run.ckpt   # kill and ...
//	bimodesim -w all -p bimode:b=14 -checkpoint run.ckpt -resume
//	bimodesim -list
//
// Workloads are the fourteen calibrated synthetic benchmarks (SPEC CINT95
// and IBS-Ultrix stand-ins), the instrumented programs, a BMC1 trace
// file produced by tracegen or tracecat (prefix with @, e.g.
// -w @gcc.bmc), or a user-defined profile (any name ending in .json; see
// synth.ReadProfile for the schema).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"strings"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/workloads"
	"bimode/internal/zoo"
)

func main() {
	// An interrupt cancels the fan-out cooperatively: completed cells are
	// still printed (and journaled), the rest come back tagged.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	err := run(ctx, os.Args[1:])
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bimodesim:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("bimodesim", flag.ContinueOnError)
	var (
		workloadList = fs.String("w", "gcc", "comma-separated workload names, or @file for a saved BMC1 trace")
		predList     = fs.String("p", "bimode:b=11;gshare:i=12,h=12", "semicolon-separated predictor specs")
		branches     = fs.Int("n", 0, "override dynamic branch count per workload (0 = profile default)")
		seed         = fs.Uint64("seed", 0, "override workload seed (0 = profile default)")
		parallel     = fs.Int("parallel", runtime.GOMAXPROCS(0), "worker goroutines for the job grid (0 = sequential reference path)")
		list         = fs.Bool("list", false, "list available workloads and predictor specs, then exit")
		checkpoint   = fs.String("checkpoint", "", "journal completed cells to this file; rerun with -resume to continue a killed run")
		resume       = fs.Bool("resume", false, "resume from the -checkpoint file instead of truncating it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *list {
		fmt.Println("workloads:")
		for _, name := range workloads.Names() {
			fmt.Println("  " + name)
		}
		fmt.Println("predictor spec examples:")
		for _, s := range zoo.Known() {
			fmt.Println("  " + s)
		}
		return nil
	}

	var sources []trace.Source
	for _, name := range strings.Split(*workloadList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		if path, ok := strings.CutPrefix(name, "@"); ok {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			m, err := trace.Decode(data)
			if err != nil {
				return fmt.Errorf("reading %s: %w", path, err)
			}
			sources = append(sources, m)
			continue
		}
		if strings.HasSuffix(name, ".json") {
			f, err := os.Open(name)
			if err != nil {
				return err
			}
			prof, err := synth.ReadProfile(f)
			f.Close()
			if err != nil {
				return err
			}
			if *branches > 0 {
				prof = prof.WithDynamic(*branches)
			}
			if *seed != 0 {
				prof = prof.WithSeed(*seed)
			}
			w, err := synth.NewWorkload(prof)
			if err != nil {
				return err
			}
			sources = append(sources, w)
			continue
		}
		src, err := workloads.Get(name, workloads.Options{Dynamic: *branches, Seed: *seed})
		if err != nil {
			return err
		}
		sources = append(sources, src)
	}
	if len(sources) == 0 {
		return fmt.Errorf("no workloads selected")
	}

	var makes []func() predictor.Predictor
	for _, spec := range strings.Split(*predList, ";") {
		spec = strings.TrimSpace(spec)
		if spec == "" {
			continue
		}
		if _, err := zoo.New(spec); err != nil { // validate early
			return err
		}
		spec := spec
		makes = append(makes, func() predictor.Predictor { return zoo.MustNew(spec) })
	}
	if len(makes) == 0 {
		return fmt.Errorf("no predictors selected")
	}

	// Sources go into the jobs unmaterialized: RunAll materializes each
	// distinct source once, through the scheduler, so generation observes
	// the cancellation context too.
	var jobs []sim.Job
	for _, src := range sources {
		for _, mk := range makes {
			jobs = append(jobs, sim.Job{Make: mk, Source: src})
		}
	}

	sched := sim.NewScheduler(*parallel).WithContext(ctx)
	if *checkpoint != "" {
		j, err := openJournal(*checkpoint, *resume)
		if err != nil {
			return err
		}
		defer j.Close()
		sched = sched.WithJournal(j)
	}

	failed, total := 0, len(jobs)
	var firstErr error
	for _, res := range sched.RunAll(jobs) {
		if res.Err != nil {
			failed++
			if firstErr == nil {
				firstErr = res.Err
			}
			fmt.Fprintf(os.Stderr, "bimodesim: [!] %s: %v\n", res.Workload, res.Err)
			continue
		}
		fmt.Println(res)
	}
	if failed > 0 {
		return fmt.Errorf("%d of %d cells did not complete (first: %w)", failed, total, firstErr)
	}
	return nil
}

// openJournal creates or resumes the checkpoint file, announcing how many
// cells a resume will serve from cache.
func openJournal(path string, resume bool) (*sim.Journal, error) {
	if resume {
		j, err := sim.ResumeJournal(path)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "bimodesim: resuming %s (%d completed cells cached)\n", path, j.Cells())
		return j, nil
	}
	return sim.CreateJournal(path)
}
