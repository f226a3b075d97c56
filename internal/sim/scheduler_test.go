package sim_test

// Determinism oracle and pool-contract tests for the suite scheduler.
// NewScheduler(0) is the sequential reference path; these tests prove the
// pooled path equal to it job for job (the experiment-level artifacts —
// golden figures, report JSON, CSV bytes — are proven byte-identical in
// internal/experiments). The whole file runs under -race in CI's
// test-parallel job.

import (
	"expvar"
	"sync"
	"sync/atomic"
	"testing"

	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// oracleJobs builds the full zoo-spec x suite-workload grid the oracle
// compares across schedulers.
func oracleJobs(t *testing.T) []sim.Job {
	t.Helper()
	traces := suiteTraces()
	if len(traces) != 14 {
		t.Fatalf("expected the 14 suite workloads, got %d", len(traces))
	}
	var jobs []sim.Job
	for _, spec := range zoo.Known() {
		spec := spec
		for _, mem := range traces {
			jobs = append(jobs, sim.Job{
				Make:   func() predictor.Predictor { return zoo.MustNew(spec) },
				Source: mem,
			})
		}
	}
	return jobs
}

// TestSchedulerOracle is the determinism oracle: for every registered
// predictor spec over all 14 suite workloads, the pooled scheduler's
// RunAll must return exactly the sequential scheduler's results, in the
// same order. Any scheduling-dependent state shared between jobs shows up
// here as a diff (and as a race under -race).
func TestSchedulerOracle(t *testing.T) {
	jobs := oracleJobs(t)
	want := sim.NewScheduler(0).RunAll(jobs)
	got := sim.NewScheduler(8).RunAll(jobs)
	if len(got) != len(want) {
		t.Fatalf("parallel returned %d results, sequential %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("job %d: parallel %+v != sequential %+v", i, got[i], want[i])
		}
	}
}

// TestRunAllInterleavedOracle holds the pool's own materialization to the
// sequential ground truth: generator sources beside their materialized
// twins, over a grid that mixes large bi-mode tables (2x256KB), small
// bi-mode tables and other engine tiers, must give the sequential
// scheduler's results at every worker count.
func TestRunAllInterleavedOracle(t *testing.T) {
	mixed := mixedSourceJobs()
	want := sim.NewScheduler(0).RunAll(mixed)
	for _, workers := range []int{1, 3, 8} {
		got := sim.NewScheduler(workers).RunAll(mixed)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("workers=%d mixed job %d: %+v != sequential %+v", workers, i, got[i], want[i])
			}
		}
	}
}

// mixedSourceJobs runs a large bi-mode instance and one spec per engine
// tier over three workloads, each both as a generator and as a
// materialized trace.
func mixedSourceJobs() []sim.Job {
	bigBiMode := func() predictor.Predictor {
		return core.MustNew(core.Config{ChoiceBits: 18, BankBits: 18, HistoryBits: 14})
	}
	var jobs []sim.Job
	for _, p := range synth.Profiles()[:3] {
		src := synth.MustWorkload(p.WithDynamic(fastpathDynamic))
		mem := trace.Materialize(synth.MustWorkload(p.WithDynamic(fastpathDynamic)))
		jobs = append(jobs, sim.Job{Make: bigBiMode, Source: src}, sim.Job{Make: bigBiMode, Source: mem})
		for _, spec := range []string{"bimode:b=11", "gselect:a=6,h=6", genericSpec} {
			mk := func() predictor.Predictor { return newTierPredictor(spec) }
			jobs = append(jobs, sim.Job{Make: mk, Source: src}, sim.Job{Make: mk, Source: mem})
		}
	}
	return jobs
}

// TestRunAllOverlappingSuitesRace runs overlapping suites through one
// pooled scheduler so its per-suite materialization and the sharded
// expvar counters are exercised concurrently; any unsynchronized state
// shared between fan-outs is a -race hit and any cross-suite aliasing
// shows up as a wrong count against the sequential reference.
func TestRunAllOverlappingSuitesRace(t *testing.T) {
	profile := synth.Profiles()[0].WithDynamic(30000)
	mkJobs := func() []sim.Job {
		// Fresh generator sources each call: every RunAll materializes
		// its own trace instead of sharing a *trace.Memory.
		src := synth.MustWorkload(profile)
		return []sim.Job{
			{Make: func() predictor.Predictor { return zoo.MustNew("bimode:b=12") }, Source: src},
			{Make: func() predictor.Predictor { return zoo.MustNew("bimode:b=12") }, Source: src},
			{Make: func() predictor.Predictor { return zoo.MustNew("bimode:b=10") }, Source: src},
			{Make: func() predictor.Predictor { return zoo.MustNew("smith:a=10") }, Source: src},
		}
	}
	want := sim.NewScheduler(0).RunAll(mkJobs())
	s := sim.NewScheduler(4)
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < 3; it++ {
				got := s.RunAll(mkJobs())
				for i := range want {
					if got[i] != want[i] {
						t.Errorf("job %d: %+v != sequential %+v", i, got[i], want[i])
					}
				}
			}
		}()
	}
	wg.Wait()
}

// panicSource panics as soon as the simulation touches it.
type panicSource struct{}

func (panicSource) Name() string         { return "panic-source" }
func (panicSource) StaticCount() int     { return 1 }
func (panicSource) Stream() trace.Stream { panic("stream exploded") }

// TestRunAllPanicCapture checks the panic contract on both scheduler
// paths: a panicking constructor and a panicking source each surface as
// Result.Err on their own slot, while the surrounding healthy jobs
// complete normally and identically.
func TestRunAllPanicCapture(t *testing.T) {
	mem := suiteTraces()[0]
	healthy := sim.Job{
		Make:   func() predictor.Predictor { return zoo.MustNew("bimode:b=8") },
		Source: mem,
	}
	jobs := []sim.Job{
		healthy,
		{Make: func() predictor.Predictor { panic("bad constructor") }, Source: mem},
		healthy,
		{Make: healthy.Make, Source: panicSource{}},
		healthy,
	}
	ref := sim.NewScheduler(0).RunAll([]sim.Job{healthy})[0]
	if ref.Err != nil {
		t.Fatalf("healthy reference job failed: %v", ref.Err)
	}
	for _, workers := range []int{0, 8} {
		res := sim.NewScheduler(workers).RunAll(jobs)
		for _, i := range []int{0, 2, 4} {
			if res[i] != ref {
				t.Errorf("workers=%d: healthy job %d = %+v, want %+v", workers, i, res[i], ref)
			}
		}
		if res[1].Err == nil || res[1].Branches != 0 {
			t.Errorf("workers=%d: constructor panic not captured: %+v", workers, res[1])
		}
		if res[3].Err == nil {
			t.Errorf("workers=%d: source panic not captured: %+v", workers, res[3])
		}
		if res[3].Workload != "panic-source" {
			t.Errorf("workers=%d: panicking job workload = %q, want panic-source", workers, res[3].Workload)
		}
	}
}

// TestDoPanicKeepsRemainingTasks checks that a panicking task only poisons
// its own slot: every other task still runs.
func TestDoPanicKeepsRemainingTasks(t *testing.T) {
	for _, workers := range []int{0, 4} {
		ran := make([]bool, 9)
		errs := sim.NewScheduler(workers).Do(len(ran), func(i int) error {
			ran[i] = true
			if i == 4 {
				panic("task 4")
			}
			return nil
		})
		for i, ok := range ran {
			if !ok {
				t.Errorf("workers=%d: task %d never ran", workers, i)
			}
			if (errs[i] != nil) != (i == 4) {
				t.Errorf("workers=%d: task %d err = %v", workers, i, errs[i])
			}
		}
	}
}

// TestDoSequentialOrder pins the reference path's contract: workers=0 runs
// tasks inline in index order on the calling goroutine.
func TestDoSequentialOrder(t *testing.T) {
	var order []int
	sim.NewScheduler(0).Do(16, func(i int) error {
		order = append(order, i) // no lock: inline execution is the contract
		return nil
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("sequential order %v, want 0..15 ascending", order)
		}
	}
	if len(order) != 16 {
		t.Fatalf("ran %d of 16 tasks", len(order))
	}
}

// TestDoBoundsConcurrency checks the pool never runs more tasks at once
// than its worker count.
func TestDoBoundsConcurrency(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	var gate sync.WaitGroup
	gate.Add(workers) // released once `workers` tasks are provably concurrent
	sim.NewScheduler(workers).Do(24, func(i int) error {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		if i < workers {
			gate.Done()
			gate.Wait() // force full pool occupancy at least once
		}
		return nil
	})
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent tasks, pool width %d", p, workers)
	} else if p < workers {
		t.Errorf("pool never reached full width: peak %d of %d", p, workers)
	}
}

// TestSchedulerExpvars checks the progress counters on both paths: after a
// fan-out, in-flight returns to its prior level and completed advances by
// the task count.
func TestSchedulerExpvars(t *testing.T) {
	// The scheduler counters are sharded internally and published as an
	// expvar.Func summing the shards.
	inflight := func() int64 { return expvar.Get("sim_sched_jobs_inflight").(expvar.Func)().(int64) }
	completed := func() int64 { return expvar.Get("sim_sched_jobs_completed").(expvar.Func)().(int64) }
	for _, workers := range []int{0, 4} {
		baseIn, baseDone := inflight(), completed()
		sim.NewScheduler(workers).Do(10, func(int) error { return nil })
		if got := inflight(); got != baseIn {
			t.Errorf("workers=%d: in-flight %d after Do, want %d", workers, got, baseIn)
		}
		if got := completed(); got != baseDone+10 {
			t.Errorf("workers=%d: completed %d after Do, want %d", workers, got, baseDone+10)
		}
	}
}

// TestNewSchedulerClamp pins the constructor contract: a negative width
// is the sequential scheduler, which runs every task inline in index
// order (the unsynchronized append would also trip -race on a pool).
func TestNewSchedulerClamp(t *testing.T) {
	var order []int
	sim.NewScheduler(-3).Do(8, func(i int) error {
		order = append(order, i)
		return nil
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("NewScheduler(-3) ran tasks in order %v, want 0..7", order)
		}
	}
	if len(order) != 8 {
		t.Fatalf("NewScheduler(-3) ran %d of 8 tasks", len(order))
	}
}
