package sim_test

// Simulator throughput benchmarks: branches/sec of the generic
// Predict/Update stream loop vs the capability fast path, on a
// materialized SPEC workload. The perf_opt acceptance bar for the batched
// engine is >= 2x generic branches/sec for bi-mode here; BENCH_sim.json
// (cmd/simbench) records the same comparison as the baseline for future
// perf work.

import (
	"sync"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// throughputDynamic is sized so the record slice (16 B/branch) stays
// cache-resident, measuring the engines rather than DRAM: past ~1M
// records the stream itself becomes the bottleneck and both loops
// converge on memory bandwidth.
const throughputDynamic = 1 << 18

// throughputTrace lazily materializes the SPEC gcc workload once for all
// throughput benchmarks.
var throughputTrace = sync.OnceValue(func() *trace.Memory {
	prof, ok := synth.ProfileByName("gcc")
	if !ok {
		panic("sim: no gcc profile")
	}
	return trace.Materialize(synth.MustWorkload(prof.WithDynamic(throughputDynamic)))
})

func benchLoop(b *testing.B, run func(p predictor.Predictor, src trace.Source) sim.Result, spec string, src trace.Source) {
	b.Helper()
	p := zoo.MustNew(spec)
	n := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Reset()
		res := run(p, src)
		n += res.Branches
	}
	b.StopTimer()
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(n)/secs, "branches/s")
	}
}

// BenchmarkThroughput compares the simulation engine's paths per hot
// predictor: "generic" is the capability-free reference loop, "batched"
// is sim.Run over a materialized trace (every spec here has a RunBatch
// kernel).
func BenchmarkThroughput(b *testing.B) {
	mem := throughputTrace()
	specs := []string{
		"bimode:b=11",
		"trimode:b=10",
		"gshare:i=12,h=12",
		"smith:a=12",
		"gas:h=10,s=2",
	}
	for _, spec := range specs {
		spec := spec
		b.Run("generic/"+spec, func(b *testing.B) {
			benchLoop(b, sim.RunGeneric, spec, mem)
		})
		b.Run("batched/"+spec, func(b *testing.B) {
			benchLoop(b, sim.Run, spec, mem)
		})
	}
}

// BenchmarkRunAllSharedTrace measures the sweep driver's shared
// materialization: many predictors over one non-materialized source.
func BenchmarkRunAllSharedTrace(b *testing.B) {
	prof, _ := synth.ProfileByName("compress")
	src := synth.MustWorkload(prof.WithDynamic(1 << 18))
	jobs := make([]sim.Job, 8)
	for i := range jobs {
		jobs[i] = sim.Job{
			Make:   func() predictor.Predictor { return zoo.MustNew("bimode:b=10") },
			Source: src,
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := sim.RunAll(jobs); len(res) != len(jobs) {
			b.Fatal("short results")
		}
	}
}
