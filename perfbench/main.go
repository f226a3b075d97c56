// Command perfbench is the repository's end-to-end and per-layer
// benchmark. It drives the library in-process through its public
// functions, generates every input from a seed, checks every op's output
// against a reference computed once per process, and prints one JSON
// result as the last line of standard output.
//
//	perfbench --workload replay-columnar --seed 1 --seconds 20 --trace 0
//	perfbench table runs/*.out > RESULTS.md
//
// With --trace 0 it reports the end-to-end metrics. With --trace 1 it
// reports the per-layer metrics instead: half the run untraced, half with
// a span recorded around every call into the program, then stage replays
// of each layer over the workload's own inputs. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// workers is the concurrency every workload is held to: worker goroutines
// of the paper grid's scheduler, and client connections of the serve
// loops. The reference machine has two CPUs.
const workers = 2

// setupReps is how many times one run sets its workload up; setup_s is
// the median of their CPU times.
const setupReps = 7

// A workload is one set of inputs and the ops run over them.
type workload interface {
	// setup generates the workload's inputs from the seed, replacing
	// those of an earlier call; rep numbers the repeated set-ups of a run.
	// close is called before each repetition.
	setup(rep int, tr *tracer) error
	// reference computes, untimed, the outputs every op is checked
	// against.
	reference() error
	// run performs ops until stop, asked before each unit of work with
	// the number of ops done so far, returns true.
	run(stop func(ops int) bool, tr *tracer) tally
	// layer returns the inputs the per-layer stage replays run on.
	layer() layerInput
	// close releases what setup started; a workload is set up again, or
	// dropped, after it.
	close()
}

// tally is what a run of ops produced.
type tally struct {
	opMS      []float64 // wall time of each op
	done      []opDone  // when each op finished, with its records
	attempted int
	failed    int
	readMS    []float64 // serve: GET report latency
	journalKB []float64 // serve, traced only: journal growth per ACK
	jobs      []float64 // paper: scheduler jobs completed per op
	overload  int64     // serve: /varz overload_rejects delta
	rollbacks int64     // serve: /varz rollbacks delta
}

func (t *tally) merge(o tally) {
	t.opMS = append(t.opMS, o.opMS...)
	t.done = append(t.done, o.done...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.readMS = append(t.readMS, o.readMS...)
	t.journalKB = append(t.journalKB, o.journalKB...)
	t.jobs = append(t.jobs, o.jobs...)
	t.overload += o.overload
	t.rollbacks += o.rollbacks
}

// opDone is one finished op: when, and how many records it simulated or
// had acknowledged.
type opDone struct {
	at      time.Time
	records int64
}

// finish records a finished op that started at t0.
func (t *tally) finish(t0 time.Time, records int64) {
	now := time.Now()
	t.opMS = append(t.opMS, ms(now.Sub(t0)))
	t.done = append(t.done, opDone{now, records})
}

// opSeq numbers ops across every phase of a run, so span op ids are
// unique.
var opSeq atomic.Int64

func nextOp() int { return int(opSeq.Add(1)) }

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is printed on the line before the result; the table command
// reads it.
type detail struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Samples  int    `json:"samples"`
	// The wall-clock figures are reported here rather than as bounded
	// metrics: on a shared host they follow CPU steal, which the CPU
	// times largely escape (README.md gives the measured spreads).
	OpP50MS    float64 `json:"op_p50_ms"`
	P90MS      float64 `json:"p90_ms,omitempty"`
	P99MS      float64 `json:"p99_ms,omitempty"`
	MrecS      float64 `json:"mrec_s"`
	SetupWallS float64 `json:"setup_wall_s"`
	Notes      string  `json:"notes"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "table" {
		if err := writeTable(os.Stdout, os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 20, "measuring time")
		traced  = fs.Int("trace", 0, "1 = report per-layer metrics from a traced run")
		work    = fs.String("work", ".bench_build", "directory for scratch files and spans")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *seconds < 1 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *traced != 0 && *traced != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	dir, err := os.MkdirTemp(mkdir(*work), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	w, spec, err := newWorkload(*name, *seed, dir)
	if err != nil {
		return err
	}
	defer w.close()

	var tr *tracer
	if *traced == 1 {
		tr = newTracer()
	}
	var setupCPU, setupWall []float64
	for rep := 0; rep < setupReps; rep++ {
		// Each set-up starts with its predecessor's server stopped and
		// from a collected heap, so it pays for neither.
		w.close()
		runtime.GC()
		t0, c0 := time.Now(), cpuSeconds()
		if err := w.setup(rep, tr); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setupCPU = append(setupCPU, cpuSeconds()-c0)
		setupWall = append(setupWall, time.Since(t0).Seconds())
	}
	if err := w.reference(); err != nil {
		return fmt.Errorf("reference: %w", err)
	}

	d := detail{Workload: *name, Seed: *seed, Trace: tr != nil, Notes: spec.notes, SetupWallS: median(setupWall)}
	res := result{Metrics: map[string]metric{}}
	dur := time.Duration(*seconds) * time.Second
	if tr == nil {
		t, ph := measure(w, dur, nil)
		endToEnd(res.Metrics, t, ph, median(setupCPU))
		res.Attempted, res.Failed = t.attempted, t.failed
		d.Samples = len(t.opMS)
		d.OpP50MS = median(t.opMS)
		if rates := windowRates(t.done, ph.start, rateWindow); len(rates) > 0 {
			d.MrecS = median(rates) / 1e6
		}
		// A percentile is reported only with ten samples beyond it.
		if beyond(len(t.opMS), 0.90) >= 10 {
			d.P90MS = percentile(t.opMS, 0.90)
		}
		if beyond(len(t.opMS), 0.99) >= 10 {
			d.P99MS = percentile(t.opMS, 0.99)
		}
	} else {
		spanPath := filepath.Join(mkdir(filepath.Join(*work, "spans")), fmt.Sprintf("%s-seed%d.json", *name, *seed))
		all, err := perLayer(res.Metrics, w, spec, dur, tr, *seed, dir, spanPath)
		if err != nil {
			return err
		}
		res.Attempted, res.Failed = all.attempted, all.failed
		d.Samples = len(all.opMS)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s was not measured (%v)", name, m.Value)
		}
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	enc := json.NewEncoder(stdout)
	if err := enc.Encode(d); err != nil {
		return err
	}
	return enc.Encode(res)
}

func mkdir(p string) string {
	_ = os.MkdirAll(p, 0o755) // a failure surfaces at the first file made in it
	return p
}

// phase is what the process spent while a tally was collected.
type phase struct {
	start      time.Time
	wall, cpu  float64 // seconds
	allocBytes float64
	gcCPU      float64 // seconds of GC CPU
}

// measure runs one warm-up unit of work, then ops until dur has passed.
func measure(w workload, dur time.Duration, tr *tracer) (tally, phase) {
	warm := w.run(func(ops int) bool { return ops >= 1 }, nil)
	before := sample()
	start := time.Now()
	t := w.run(func(int) bool { return time.Since(start) >= dur }, tr)
	after := sample()
	ph := phase{
		start:      start,
		wall:       time.Since(start).Seconds(),
		cpu:        after.cpu - before.cpu,
		allocBytes: after.alloc - before.alloc,
		gcCPU:      after.gc - before.gc,
	}
	t.attempted += warm.attempted
	t.failed += warm.failed
	return t, ph
}

type counters struct{ cpu, alloc, gc float64 }

var runtimeMetrics = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
}

func sample() counters {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, n := range runtimeMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return counters{cpu: cpuSeconds(), alloc: val(0), gc: val(1)}
}

// cpuSeconds returns the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB returns the process's peak resident memory.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}

// endToEnd fills the end-to-end metrics of an untraced run. setup is the
// median CPU time of the set-ups.
func endToEnd(m map[string]metric, t tally, ph phase, setup float64) {
	put := func(name string, v float64) { m[name] = metric{v, endToEndUnits[name]} }
	put("setup_s", setup)
	put("peak_rss_mb", peakRSSMB())
	put("cpu_ms_per_op", ph.cpu*1e3/float64(len(t.opMS)))
	put("ok_ratio", 1-float64(t.failed)/float64(t.attempted))
}
