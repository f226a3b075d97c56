// Command simbench measures simulation-engine throughput (branches/sec)
// for the generic Predict/Update loop vs the batched capability fast
// path over the SPEC suite, and writes the comparison as JSON. The
// committed BENCH_sim.json at the repository root is this command's
// output and serves as the baseline for future performance work.
//
// Usage:
//
//	simbench                          # default specs, write BENCH_sim.json
//	simbench -o bench.json -reps 5
//	simbench -specs bimode:b=11 -n 100000
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"time"

	"bimode/internal/experiments"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// defaultSpecs covers the fast-path tier against the generic loop as the
// common baseline: the whole-trace BatchRunner loops of bi-mode,
// tri-mode, gshare, smith and GAs, and those of the paper's de-aliasing
// rivals (e-gskew, the 21264-style tournament, agree and the filter). A
// family that silently lost its kernel would fall back to
// Predict/Update, lose most of its speedup and trip the guard's
// per-spec floor.
const defaultSpecs = "bimode:b=11,trimode:b=10,gshare:i=12;h=12,smith:a=12,gas:h=10;s=2,gskew:b=10;h=10;p=1,alpha:s=12,agree:i=12;h=12;b=10,filter:i=12;h=12;f=10;m=32"

// defaultDynamic keeps each workload's record slice (16 B/branch)
// cache-resident so the measurement reflects the engines rather than
// DRAM bandwidth; see internal/sim/throughput_bench_test.go.
const defaultDynamic = 1 << 18

// Result is one spec's generic-vs-batched comparison, suite-aggregated.
type Result struct {
	Spec                  string  `json:"spec"`
	Predictor             string  `json:"predictor"`
	GenericBranchesPerSec float64 `json:"generic_branches_per_sec"`
	BatchedBranchesPerSec float64 `json:"batched_branches_per_sec"`
	Speedup               float64 `json:"speedup"`
	Branches              int     `json:"branches"`
	Mispredicts           int     `json:"mispredicts"`
}

// SuiteParallel is the suite-level scheduler measurement: the full
// (spec x workload) job grid dispatched through the sequential reference
// scheduler and through worker pools of increasing width. Unlike the
// per-spec engine numbers it measures RunAll itself — pool dispatch,
// shared materialization and result collection. The Workers/Parallel*
// fields are the widest (GOMAXPROCS) point of the curve. On a
// single-core host every speedup sits near 1.0 by construction — above
// it only by what the pool saves in dispatch overhead — and the guard
// never reads these fields (pool speedup is a property of the host's
// core count, not the code).
type SuiteParallel struct {
	Jobs                     int           `json:"jobs"`
	Workers                  int           `json:"workers"`
	SequentialBranchesPerSec float64       `json:"sequential_branches_per_sec"`
	ParallelBranchesPerSec   float64       `json:"parallel_branches_per_sec"`
	Speedup                  float64       `json:"speedup"`
	Curve                    []WorkerPoint `json:"curve"`
}

// WorkerPoint is one pool width's measurement of the suite grid.
type WorkerPoint struct {
	Workers        int     `json:"workers"`
	BranchesPerSec float64 `json:"branches_per_sec"`
	// Speedup is relative to the sequential reference scheduler.
	Speedup float64 `json:"speedup"`
}

// Report is the top-level BENCH_sim.json document.
type Report struct {
	Suite              string         `json:"suite"`
	Workloads          []string       `json:"workloads"`
	DynamicPerWorkload int            `json:"dynamic_per_workload"`
	Reps               int            `json:"reps"`
	GoVersion          string         `json:"go_version"`
	GOARCH             string         `json:"goarch"`
	Results            []Result       `json:"results"`
	SuiteParallel      *SuiteParallel `json:"suite_parallel,omitempty"`
}

func run(args []string) error {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	var (
		out     = fs.String("o", "BENCH_sim.json", "output JSON file")
		specs   = fs.String("specs", defaultSpecs, "comma-separated predictor specs (use ';' for spec-internal separators)")
		n       = fs.Int("n", defaultDynamic, "dynamic branches per SPEC workload")
		reps    = fs.Int("reps", 3, "repetitions per measurement (best is kept)")
		against = fs.String("against", "", "baseline report to guard against: fail when batched/generic speedups regress vs the baseline by more than -tol")
		tol     = fs.Float64("tol", 0.15, "allowed fractional regression for -against: geomean floor 1-tol, per-spec floor 1-3*tol")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *n <= 0 || *reps <= 0 {
		return fmt.Errorf("-n and -reps must be positive")
	}
	if *tol < 0 || *tol >= 1 {
		return fmt.Errorf("-tol must be in [0,1)")
	}

	srcs := experiments.SuiteSources(synth.SuiteSPEC, experiments.Config{Dynamic: *n})
	if len(srcs) == 0 {
		return fmt.Errorf("no SPEC workloads")
	}
	var names []string
	for _, p := range synth.Profiles() {
		if p.Suite == synth.SuiteSPEC {
			names = append(names, p.Name)
		}
	}

	rep := Report{
		Suite:              synth.SuiteSPEC,
		Workloads:          names,
		DynamicPerWorkload: *n,
		Reps:               *reps,
		GoVersion:          runtime.Version(),
		GOARCH:             runtime.GOARCH,
	}

	var parsed []string
	for _, raw := range strings.Split(*specs, ",") {
		spec := strings.ReplaceAll(strings.TrimSpace(raw), ";", ",")
		if spec == "" {
			continue
		}
		p, err := zoo.New(spec)
		if err != nil {
			return err
		}
		parsed = append(parsed, spec)
		genSecs, genMiss, branches := measure(sim.RunGeneric, spec, srcs, *reps)
		batSecs, batMiss, _ := measure(sim.Run, spec, srcs, *reps)
		if genMiss != batMiss {
			return fmt.Errorf("%s: engines disagree: generic %d mispredicts, batched %d", spec, genMiss, batMiss)
		}
		r := Result{
			Spec:                  spec,
			Predictor:             p.Name(),
			GenericBranchesPerSec: float64(branches) / genSecs,
			BatchedBranchesPerSec: float64(branches) / batSecs,
			Branches:              branches,
			Mispredicts:           batMiss,
		}
		r.Speedup = r.BatchedBranchesPerSec / r.GenericBranchesPerSec
		rep.Results = append(rep.Results, r)
		fmt.Printf("%-20s generic %6.1f Mbr/s  batched %6.1f Mbr/s  speedup %.2fx\n",
			spec, r.GenericBranchesPerSec/1e6, r.BatchedBranchesPerSec/1e6, r.Speedup)
	}

	if len(rep.Results) == 0 {
		return fmt.Errorf("no specs to measure")
	}

	sp := measureSuite(parsed, srcs, *reps)
	rep.SuiteParallel = &sp
	fmt.Printf("%-20s seq %9.1f Mbr/s  (%d jobs)\n",
		"suite RunAll", sp.SequentialBranchesPerSec/1e6, sp.Jobs)
	for _, pt := range sp.Curve {
		fmt.Printf("%-20s pool(%d) %7.1f Mbr/s  speedup %.2fx\n",
			"", pt.Workers, pt.BranchesPerSec/1e6, pt.Speedup)
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", *out)

	if *against != "" {
		if err := guardAgainst(*against, rep, *tol); err != nil {
			return err
		}
		fmt.Printf("guard: within %.0f%% of %s\n", 100**tol, *against)
	}
	return nil
}

// guardAgainst is the CI benchmark-smoke guard. For every spec present in
// both the fresh measurement and the baseline report it forms the ratio of
// batched/generic speedups (fresh over baseline) — a machine-relative
// quantity, since absolute branches/sec means nothing on CI hardware that
// differs from the machine that wrote the baseline — and fails when:
//
//   - the geometric mean of the ratios drops below 1-tol, the signature of
//     overhead creeping into the shared fast path (e.g. instrumentation
//     leaking into sim.Run), which depresses every spec together; or
//   - any single ratio drops below 1-3*tol, the signature of one tier
//     silently losing its capability fast path and falling back to the
//     generic loop.
//
// Per-spec ratios are individually noisy (short measurements, shared CI
// cores), which is why the suite-wide check uses the geometric mean and
// the per-spec floor is 3x looser.
func guardAgainst(path string, fresh Report, tol float64) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base Report
	if err := json.Unmarshal(data, &base); err != nil {
		return fmt.Errorf("parsing baseline %s: %w", path, err)
	}
	baseBySpec := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseBySpec[r.Spec] = r
	}
	var collapsed []string
	logSum, matched := 0.0, 0
	for _, r := range fresh.Results {
		b, ok := baseBySpec[r.Spec]
		if !ok || b.Speedup <= 0 || r.Speedup <= 0 {
			continue
		}
		matched++
		ratio := r.Speedup / b.Speedup
		logSum += math.Log(ratio)
		if ratio < 1-3*tol {
			collapsed = append(collapsed, fmt.Sprintf(
				"%s: speedup %.2fx is %.0f%% below baseline %.2fx (per-spec floor %.0f%%)",
				r.Spec, r.Speedup, 100*(1-ratio), b.Speedup, 100*3*tol))
		}
	}
	if matched == 0 {
		return fmt.Errorf("guard: no measured spec appears in baseline %s", path)
	}
	if len(collapsed) > 0 {
		return fmt.Errorf("guard: fast path collapsed for:\n  %s", strings.Join(collapsed, "\n  "))
	}
	if gm := math.Exp(logSum / float64(matched)); gm < 1-tol {
		return fmt.Errorf("guard: suite-wide fast-path regression: geomean speedup ratio %.3f below floor %.3f (%d specs vs %s)",
			gm, 1-tol, matched, path)
	}
	return nil
}

// suiteWorkerCounts returns the pool widths the suite curve samples:
// powers of two up to GOMAXPROCS, always ending at GOMAXPROCS itself.
func suiteWorkerCounts() []int {
	max := runtime.GOMAXPROCS(0)
	var counts []int
	for w := 1; w < max; w *= 2 {
		counts = append(counts, w)
	}
	return append(counts, max)
}

// measureSuite times the full (spec x workload) grid through RunAll on
// the sequential reference scheduler and on pools of every width in
// suiteWorkerCounts, keeping each path's best of reps passes. Every
// width runs the identical grid, so each curve point isolates what that
// pool width buys (or costs) at suite granularity on this host.
func measureSuite(specs []string, srcs []trace.Source, reps int) SuiteParallel {
	var jobs []sim.Job
	for _, spec := range specs {
		spec := spec
		for _, src := range srcs {
			jobs = append(jobs, sim.Job{
				Make:   func() predictor.Predictor { return zoo.MustNew(spec) },
				Source: src,
			})
		}
	}
	branches := 0
	grid := func(s *sim.Scheduler) float64 {
		best := time.Duration(1<<63 - 1)
		for rep := 0; rep < reps; rep++ {
			start := time.Now()
			results := s.RunAll(jobs)
			if d := time.Since(start); d < best {
				best = d
			}
			if rep == 0 {
				branches = 0
				for _, r := range results {
					branches += r.Branches
				}
			}
		}
		return best.Seconds()
	}
	seqSecs := grid(sim.NewScheduler(0))
	sp := SuiteParallel{
		Jobs:                     len(jobs),
		SequentialBranchesPerSec: float64(branches) / seqSecs,
	}
	for _, w := range suiteWorkerCounts() {
		secs := grid(sim.NewScheduler(w))
		sp.Curve = append(sp.Curve, WorkerPoint{
			Workers:        w,
			BranchesPerSec: float64(branches) / secs,
			Speedup:        seqSecs / secs,
		})
		// The widest point doubles as the headline parallel measurement.
		sp.Workers = w
		sp.ParallelBranchesPerSec = float64(branches) / secs
		sp.Speedup = seqSecs / secs
	}
	return sp
}

// measure runs the given engine for one spec over every source, reps
// times per workload, keeping each workload's best (minimum) wall time
// so the first pass's cold-cache cost is excluded. It returns the summed
// best times alongside the suite totals, which are identical across reps
// because the predictor is reset before every pass.
func measure(engine func(p predictor.Predictor, src trace.Source) sim.Result, spec string, srcs []trace.Source, reps int) (secs float64, mispredicts, branches int) {
	p := zoo.MustNew(spec)
	total := time.Duration(0)
	for _, src := range srcs {
		best := time.Duration(1<<63 - 1)
		var res sim.Result
		for rep := 0; rep < reps; rep++ {
			p.Reset()
			start := time.Now()
			res = engine(p, src)
			if d := time.Since(start); d < best {
				best = d
			}
		}
		total += best
		mispredicts += res.Mispredicts
		branches += res.Branches
	}
	return total.Seconds(), mispredicts, branches
}
