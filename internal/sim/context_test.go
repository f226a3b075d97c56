package sim_test

// Cancellation and panic-recovery tests for the fault-tolerant
// scheduler layer. Everything here runs under -race in CI (test-race and
// test-chaos jobs).

import (
	"context"
	"errors"
	"expvar"
	"fmt"
	"sync/atomic"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

func expvarInt(t *testing.T, name string) int64 {
	t.Helper()
	v := expvar.Get(name)
	if v == nil {
		t.Fatalf("expvar %q not published", name)
	}
	// The scheduler counters are sharded and published as an expvar.Func
	// summing the shards; the observation counters are plain Ints.
	switch iv := v.(type) {
	case *expvar.Int:
		return iv.Value()
	case expvar.Func:
		n, ok := iv().(int64)
		if !ok {
			t.Fatalf("expvar %q yields %T, want int64", name, iv())
		}
		return n
	default:
		t.Fatalf("expvar %q is %T, want *expvar.Int or expvar.Func", name, v)
		return 0
	}
}

// TestDoEdgeCases pins the documented boundary behaviors of Do: n <= 0
// returns an empty slice without invoking the task, and a negative
// worker count clamps to the sequential path.
func TestDoEdgeCases(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		n       int
	}{
		{"zero jobs sequential", 0, 0},
		{"zero jobs pooled", 4, 0},
		{"negative jobs", 4, -3},
		{"negative workers", -2, 5},
		{"more workers than jobs", 16, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var calls atomic.Int64
			errs := sim.NewScheduler(tc.workers).Do(tc.n, func(i int) error {
				calls.Add(1)
				return nil
			})
			wantCalls := int64(tc.n)
			if wantCalls < 0 {
				wantCalls = 0
			}
			if calls.Load() != wantCalls {
				t.Errorf("task ran %d times, want %d", calls.Load(), wantCalls)
			}
			if len(errs) != int(wantCalls) {
				t.Errorf("got %d error slots, want %d", len(errs), wantCalls)
			}
			for i, err := range errs {
				if err != nil {
					t.Errorf("slot %d: %v", i, err)
				}
			}
		})
	}
}

// TestDoContextSkipsAfterCancel proves cancellation semantics on the
// sequential path, where ordering is deterministic: jobs before the
// cancel complete, jobs after it are skipped with context.Canceled and
// never invoked.
func TestDoContextSkipsAfterCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n, cutoff = 10, 4
	ran := make([]bool, n)
	errs := sim.NewScheduler(0).WithContext(ctx).DoContext(n, func(_ context.Context, i int) error {
		ran[i] = true
		if i == cutoff {
			cancel()
		}
		return nil
	})
	for i := 0; i < n; i++ {
		if i <= cutoff {
			if !ran[i] {
				t.Errorf("job %d should have run before the cancel", i)
			}
			if errs[i] != nil {
				t.Errorf("job %d: unexpected error %v", i, errs[i])
			}
		} else {
			if ran[i] {
				t.Errorf("job %d ran after the cancel", i)
			}
			if !errors.Is(errs[i], context.Canceled) {
				t.Errorf("job %d: error %v, want context.Canceled", i, errs[i])
			}
		}
	}
}

// TestRunAllCancelKeepsPrefix is the suite-level cancellation contract:
// a canceled RunAll returns every completed cell intact and tags the
// rest with context.Canceled, and sim_sched_cancelled counts them.
func TestRunAllCancelKeepsPrefix(t *testing.T) {
	mem := suiteTraces()[0]
	jobs := make([]sim.Job, 8)
	for i := range jobs {
		jobs[i] = sim.Job{
			Make:   func() predictor.Predictor { return zoo.MustNew("bimode:b=11") },
			Source: mem,
		}
	}
	want := sim.NewScheduler(0).RunAll(jobs)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	cancelJobs := make([]sim.Job, len(jobs))
	for i := range jobs {
		i := i
		cancelJobs[i] = sim.Job{
			Make: func() predictor.Predictor {
				p := zoo.MustNew("bimode:b=11")
				if done.Add(1) == 3 {
					cancel()
				}
				return p
			},
			Source: jobs[i].Source,
		}
	}
	before := expvarInt(t, "sim_sched_cancelled")
	got := sim.NewScheduler(0).WithContext(ctx).RunAll(cancelJobs)

	completed, cancelled := 0, 0
	for i, r := range got {
		switch {
		case r.Err == nil:
			completed++
			if r != want[i] {
				t.Errorf("completed cell %d: %+v != sequential %+v", i, r, want[i])
			}
		case errors.Is(r.Err, context.Canceled):
			cancelled++
			if r.Workload != mem.Name() {
				t.Errorf("cancelled cell %d: workload %q, want %q", i, r.Workload, mem.Name())
			}
		default:
			t.Errorf("cell %d: unexpected error class %v", i, r.Err)
		}
	}
	if completed == 0 || cancelled == 0 {
		t.Fatalf("expected a completed prefix and cancelled remainder, got %d completed / %d cancelled", completed, cancelled)
	}
	if gotCancelled := expvarInt(t, "sim_sched_cancelled") - before; gotCancelled < int64(cancelled) {
		t.Errorf("sim_sched_cancelled advanced %d, want >= %d", gotCancelled, cancelled)
	}
}

// stallStream blocks inside Next until its context is canceled, then
// ends the stream; it models a hung trace generator that only cooperates
// via cancellation.
type stallStream struct{ ctx context.Context }

func (s *stallStream) Next() (trace.Record, bool) {
	<-s.ctx.Done()
	return trace.Record{}, false
}

type stallSource struct{ ctx context.Context }

func (s *stallSource) Name() string         { return "stall" }
func (s *stallSource) StaticCount() int     { return 1 }
func (s *stallSource) Stream() trace.Stream { return &stallStream{ctx: s.ctx} }

// TestChunkedCancelStopsMidCell proves the record-batch granularity: a
// cell already running when the context is canceled stops at the next
// batch boundary instead of finishing the trace.
func TestChunkedCancelStopsMidCell(t *testing.T) {
	mem := suiteTraces()[0]
	ctx, cancel := context.WithCancel(context.Background())
	jobs := []sim.Job{{
		Make: func() predictor.Predictor {
			p := zoo.MustNew("bimode:b=11")
			cancel() // cancel after the job starts but before its loop
			return p
		},
		Source: mem,
	}}
	got := sim.NewScheduler(0).WithContext(ctx).RunAll(jobs)
	if !errors.Is(got[0].Err, context.Canceled) {
		t.Fatalf("mid-cell cancel: err %v, want context.Canceled", got[0].Err)
	}
	if got[0].Branches != 0 {
		t.Fatalf("cancelled cell leaked partial counts: %+v", got[0])
	}
}

// TestPanicPreservesErrorClass: a panic whose value is an error keeps
// its chain through the recovery, so errors.Is still finds a sentinel
// the panicking code raised, and the job is attempted exactly once.
func TestPanicPreservesErrorClass(t *testing.T) {
	sentinel := errors.New("injected")
	var attempts atomic.Int64
	errs := sim.NewScheduler(0).Do(1, func(int) error {
		attempts.Add(1)
		panic(fmt.Errorf("wrapped: %w", sentinel))
	})
	if !errors.Is(errs[0], sentinel) {
		t.Fatalf("recovered error lost its chain: %v", errs[0])
	}
	if attempts.Load() != 1 {
		t.Fatalf("attempted %d times, want 1", attempts.Load())
	}
}

// TestObserveContextCancel: the instrumented tier also honors
// cancellation, and Observe (the background form) still works.
func TestObserveContextCancel(t *testing.T) {
	mem := suiteTraces()[0]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := sim.ObserveContext(ctx, zoo.MustNew("bimode:b=11"), mem, sim.ObserveOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("ObserveContext under canceled ctx: err %v, want context.Canceled", err)
	}
	rep, err := sim.ObserveContext(context.Background(), zoo.MustNew("bimode:b=11"), mem, sim.ObserveOptions{})
	if err != nil || rep.Branches != mem.Len() {
		t.Fatalf("ObserveContext background run: %v, branches %d want %d", err, rep.Branches, mem.Len())
	}
}

// TestMaterializeContextCancel: a canceled context stops a stalled
// generator's materialization (the stall source only yields when its
// stream's context fires, so an uncancelable Materialize would hang).
func TestMaterializeContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := trace.MaterializeContext(ctx, &stallSource{ctx: ctx}); !errors.Is(err, context.Canceled) {
		t.Fatalf("MaterializeContext: err %v, want context.Canceled", err)
	}
}

// TestChunkedRunMatchesPlainRun: attaching a cancelable context (never
// canceled) switches runCell to the chunked loop; its results must be
// byte-identical to the plain path for the whole spec x workload grid.
func TestChunkedRunMatchesPlainRun(t *testing.T) {
	jobs := oracleJobs(t)
	want := sim.NewScheduler(0).RunAll(jobs)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := sim.NewScheduler(0).WithContext(ctx).RunAll(jobs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("job %d: chunked %+v != plain %+v", i, got[i], want[i])
		}
	}
}
