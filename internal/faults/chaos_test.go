package faults_test

// The chaos suite: seed-driven fault schedules over a small predictor x
// workload grid, asserting the runtime's fault contract for every
// injected class — a canceled or failed cell yields a tagged Result.Err,
// a surviving cell yields exactly the fault-free counts, truncation
// yields exactly the shortened counts, and nothing hangs or silently
// drops data. CI's test-chaos job runs this under -race with
// BIMODE_CHAOS_SEEDS=100; the default is a quick 8-seed smoke.

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"testing"
	"time"

	"bimode/internal/faults"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// chaosDynamic keeps each cell fast enough that a 100-seed matrix under
// -race stays in CI budget.
const chaosDynamic = 20000

// chaosSeeds returns the seed matrix: BIMODE_CHAOS_SEEDS overrides the
// seed count (CI sets 100), defaulting to 8 for local runs.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	n := 8
	if env := os.Getenv("BIMODE_CHAOS_SEEDS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v < 1 {
			t.Fatalf("BIMODE_CHAOS_SEEDS=%q: want a positive integer", env)
		}
		n = v
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// chaosGrid is the fault-free baseline: the Snapshotter families over
// three synthetic workloads.
var chaosSpecs = []string{"bimode:b=11", "trimode:b=10", "gshare:i=12,h=12", "smith:a=12"}

func chaosTraces(t *testing.T) []*trace.Memory {
	t.Helper()
	profiles := synth.Profiles()
	if len(profiles) < 3 {
		t.Fatalf("need at least 3 synthetic profiles, have %d", len(profiles))
	}
	var out []*trace.Memory
	for _, p := range profiles[:3] {
		out = append(out, trace.Materialize(synth.MustWorkload(p.WithDynamic(chaosDynamic))))
	}
	return out
}

func chaosJobs(traces []*trace.Memory) []sim.Job {
	var jobs []sim.Job
	for _, spec := range chaosSpecs {
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

// faultClass enumerates the injections a schedule can assign to a cell.
type faultClass int

const (
	faultNone faultClass = iota
	faultMakePanic
	faultPanic
	faultStall
	faultTruncate
	faultCorrupt
	numFaultClasses
)

func (c faultClass) String() string {
	return [...]string{"none", "make-panic", "panic", "stall", "truncate", "corrupt"}[c]
}

// errMakeFault is what a faultMakePanic cell's constructor panics with.
var errMakeFault = errors.New("chaos: injected construction failure")

// panickingMake is a constructor that always fails: the scheduler must
// confine it to its own cell, with the panic's error chain intact.
func panickingMake() predictor.Predictor { panic(errMakeFault) }

// inject applies class to a copy of the baseline job, returning the
// faulty job plus the truncation length when the class shortens the
// trace. All randomness is drawn from rng, so a schedule is a pure
// function of its seed.
func inject(class faultClass, job sim.Job, mem *trace.Memory, rng *rand.Rand) (sim.Job, int) {
	cut := -1
	switch class {
	case faultMakePanic:
		job.Make = panickingMake
	case faultPanic:
		job.Source = faults.PanicAfter(mem, rng.Intn(mem.Len()), "chaos")
	case faultStall:
		job.Source = faults.Stall(mem, 2048+rng.Intn(8192), 50*time.Microsecond)
	case faultTruncate:
		cut = rng.Intn(mem.Len())
		job.Source = faults.Truncate(mem, cut)
	case faultCorrupt:
		job.Source = faults.Corrupt(mem, rng.Int63())
	}
	return job, cut
}

// TestChaosSchedules is the main chaos matrix: for every seed, build a
// schedule assigning each cell a fault class, run the grid through the
// pooled scheduler, and assert the per-class outcome contract against
// the fault-free reference.
func TestChaosSchedules(t *testing.T) {
	traces := chaosTraces(t)
	base := chaosJobs(traces)
	memOf := make([]*trace.Memory, len(base))
	for i := range base {
		memOf[i] = base[i].Source.(*trace.Memory)
	}
	reference := sim.NewScheduler(0).RunAll(base)

	injectedBefore := expvar.Get("sim_faults_injected").(*expvar.Int).Value()
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			jobs := make([]sim.Job, len(base))
			classes := make([]faultClass, len(base))
			cuts := make([]int, len(base))
			for i := range base {
				classes[i] = faultClass(rng.Intn(int(numFaultClasses)))
				jobs[i], cuts[i] = inject(classes[i], base[i], memOf[i], rng)
			}
			results := sim.NewScheduler(4).RunAll(jobs)
			if len(results) != len(jobs) {
				t.Fatalf("got %d results for %d jobs", len(results), len(jobs))
			}
			for i, res := range results {
				ref := reference[i]
				switch classes[i] {
				case faultNone, faultStall:
					// Stalls change timing only, never records.
					if res != ref {
						t.Errorf("cell %d (%v): %+v != reference %+v", i, classes[i], res, ref)
					}
				case faultMakePanic:
					if !errors.Is(res.Err, errMakeFault) {
						t.Errorf("cell %d (make-panic): err %v, want the injected construction failure", i, res.Err)
					}
				case faultPanic:
					if res.Err == nil {
						t.Errorf("cell %d (panic): reported success", i)
					}
				case faultTruncate:
					if res.Err != nil {
						t.Errorf("cell %d (truncate): err %v", i, res.Err)
					} else if res.Branches != cuts[i] {
						t.Errorf("cell %d (truncate): %d branches, want the %d-record cut", i, res.Branches, cuts[i])
					}
				case faultCorrupt:
					// Every flip in a BMC1 file is caught by a checksum, so
					// a corrupt cell fails with the typed decode error.
					var dec *trace.ColumnarDecodeError
					if !errors.As(res.Err, &dec) {
						t.Errorf("cell %d (corrupt): err %v, want one wrapping a *trace.ColumnarDecodeError", i, res.Err)
					}
				}
				if res.Err != nil && res.Branches != 0 {
					t.Errorf("cell %d (%v): failed cell leaked partial counts: %+v", i, classes[i], res)
				}
			}
		})
	}
	if after := expvar.Get("sim_faults_injected").(*expvar.Int).Value(); after <= injectedBefore {
		t.Errorf("sim_faults_injected did not advance (before %d, after %d)", injectedBefore, after)
	}
}

// TestChaosResumableCheckpoint is the second half of the fault contract:
// a faulty run that is additionally killed partway must leave a
// checkpoint from which a fault-free rerun completes with exactly the
// reference results — a failed cell is never journaled, so chaos never
// poisons the journal.
func TestChaosResumableCheckpoint(t *testing.T) {
	traces := chaosTraces(t)
	base := chaosJobs(traces)
	reference := sim.NewScheduler(0).RunAll(base)

	// Chaos leg: every third cell's constructor panics, and the run is
	// killed once half the healthy cells are journaled. One worker makes
	// the kill point deterministic: failed cells run before it, and the
	// cells after it are never started.
	jobs := make([]sim.Job, len(base))
	faulty := map[sim.Result]bool{} // reference cells whose Make panics
	for i := range base {
		jobs[i] = base[i]
		if i%3 == 1 {
			jobs[i].Make = panickingMake
			faulty[reference[i]] = true
		}
	}
	healthy := len(jobs) - len(faulty)
	path := filepath.Join(t.TempDir(), "chaos.ckpt")
	j, err := sim.CreateJournal(path)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	var journaledFaulty atomic.Int64
	j.OnCell = func(r sim.Result) {
		if faulty[r] {
			journaledFaulty.Add(1)
		}
		if done.Add(1) == int64(healthy/2) {
			cancel()
		}
	}
	partial := sim.NewScheduler(1).WithContext(ctx).WithJournal(j).RunAll(jobs)
	if err := j.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
	if n := journaledFaulty.Load(); n != 0 {
		t.Errorf("%d cells whose Make panics were journaled", n)
	}
	interrupted, failed := false, false
	for i, r := range partial {
		switch {
		case errors.Is(r.Err, context.Canceled):
			interrupted = true
		case faulty[reference[i]]:
			if !errors.Is(r.Err, errMakeFault) {
				t.Errorf("cell %d (make-panic): err %v, want the injected construction failure", i, r.Err)
			}
			failed = true
		}
	}
	if !interrupted || !failed {
		t.Fatalf("the chaos leg must end with canceled and failed cells (canceled %v, failed %v)", interrupted, failed)
	}

	// Resume leg: no faults, no cancel — must reproduce the reference
	// exactly, reusing the journaled cells.
	j2, err := sim.ResumeJournal(path)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer j2.Close()
	if j2.Cells() == 0 {
		t.Fatalf("chaos run journaled no cells before the kill")
	}
	got := sim.NewScheduler(4).WithJournal(j2).RunAll(base)
	for i := range reference {
		if got[i] != reference[i] {
			t.Errorf("resumed cell %d: %+v != reference %+v", i, got[i], reference[i])
		}
	}
}
