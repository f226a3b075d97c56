package sim_test

// Differential harness for the columnar trace store: the columnar
// encoding of every suite workload must be indistinguishable from its
// row-format Memory — byte-identical after a round trip, and
// Result-for-Result identical under sim.Run for every registered
// predictor spec — and columnar sources must flow through the
// scheduler, the journal and kill/resume exactly like materialized
// traces. TestColumnarSchedulerRace iterates one shared *Columnar from
// the whole pool and runs under -race in CI's test-parallel job.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync/atomic"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// columnarize encodes m at the given block size and opens the result as
// a zero-copy columnar handle.
func columnarize(t *testing.T, m *trace.Memory, blockSize int) *trace.Columnar {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteColumnarBlocks(&buf, m, blockSize); err != nil {
		t.Fatalf("WriteColumnarBlocks(%q, %d): %v", m.Name(), blockSize, err)
	}
	c, err := trace.OpenColumnar(buf.Bytes())
	if err != nil {
		t.Fatalf("OpenColumnar(%q): %v", m.Name(), err)
	}
	return c
}

// TestColumnarDifferential is the equivalence proof the issue demands:
// over all 14 suite workloads, (1) encode -> open -> materialize ->
// re-encode is byte-identical, and (2) for EVERY registered zoo spec,
// sim.Run over the columnar handle returns exactly the Result it
// returns over the row-format Memory. Two block sizes are swept so both
// the many-small-blocks and few-big-blocks shapes are proven.
func TestColumnarDifferential(t *testing.T) {
	traces := suiteTraces()
	if len(traces) != 14 {
		t.Fatalf("expected the 14 suite workloads, got %d", len(traces))
	}
	specs := zoo.Known()
	for _, blockSize := range []int{257, trace.DefaultColumnarBlock} {
		blockSize := blockSize
		t.Run(fmt.Sprintf("block=%d", blockSize), func(t *testing.T) {
			for _, mem := range traces {
				c := columnarize(t, mem, blockSize)

				// Byte-identical round trip: materializing the columnar
				// handle and re-encoding it reproduces the same bytes.
				var first, second bytes.Buffer
				if err := trace.WriteColumnarBlocks(&first, mem, blockSize); err != nil {
					t.Fatalf("encode %q: %v", mem.Name(), err)
				}
				again := trace.Materialize(c)
				if err := trace.WriteColumnarBlocks(&second, again, blockSize); err != nil {
					t.Fatalf("re-encode %q: %v", mem.Name(), err)
				}
				if !bytes.Equal(first.Bytes(), second.Bytes()) {
					t.Fatalf("workload %q: columnar round trip is not byte-identical", mem.Name())
				}

				// Result-for-Result: every spec, columnar vs Memory.
				for _, spec := range specs {
					want := sim.Run(zoo.MustNew(spec), mem)
					got := sim.Run(zoo.MustNew(spec), c)
					if got != want {
						t.Errorf("spec %q workload %q: columnar %+v != memory %+v",
							spec, mem.Name(), got, want)
					}
				}
			}
		})
	}
}

// TestColumnarStaticBlind: sim.Run's first pass over a fresh columnar
// handle decodes every block whole, checking its static column, and its
// second pass decodes PC and Taken alone, leaving each record's Static
// unspecified. Both must give the Result sim.Run gives over the Memory,
// for every spec the fast-path oracle covers, so a kernel that starts
// reading Static fails here.
func TestColumnarStaticBlind(t *testing.T) {
	for _, mem := range suiteTraces() {
		if mem.StaticCount() < 2 {
			t.Fatalf("workload %q has %d static branches; a Static read would not show", mem.Name(), mem.StaticCount())
		}
		for _, spec := range fastpathSpecs() {
			want := sim.Run(zoo.MustNew(spec), mem)
			c := columnarize(t, mem, 1024)
			for _, pass := range []string{"checking", "projected"} {
				if got := sim.Run(zoo.MustNew(spec), c); got != want {
					t.Errorf("spec %q workload %q, %s pass: columnar %+v != memory %+v",
						spec, mem.Name(), pass, got, want)
				}
			}
		}
	}
}

// columnarJobs is oracleJobs with every Source swapped for its columnar
// encoding: the zoo-spec x suite-workload grid over zero-copy handles.
func columnarJobs(t *testing.T, blockSize int) []sim.Job {
	t.Helper()
	traces := suiteTraces()
	var jobs []sim.Job
	for _, spec := range zoo.Known() {
		spec := spec
		for _, mem := range traces {
			jobs = append(jobs, sim.Job{
				Make:   func() predictor.Predictor { return zoo.MustNew(spec) },
				Source: columnarize(t, mem, blockSize),
			})
		}
	}
	return jobs
}

// TestColumnarSchedulerOracle: the pooled scheduler over columnar
// sources equals both the sequential scheduler over the same sources and
// the sequential scheduler over the original Memories. This is the
// "scheduler works unchanged over columnar sources" clause — shared
// handles are deduped and materialized exactly once per fan-out.
func TestColumnarSchedulerOracle(t *testing.T) {
	ref := sim.NewScheduler(0).RunAll(oracleJobs(t))
	jobs := columnarJobs(t, trace.DefaultColumnarBlock)
	seq := sim.NewScheduler(0).RunAll(jobs)
	par := sim.NewScheduler(8).RunAll(jobs)
	if len(seq) != len(ref) || len(par) != len(ref) {
		t.Fatalf("result counts differ: ref %d, seq %d, par %d", len(ref), len(seq), len(par))
	}
	for i := range ref {
		if seq[i] != ref[i] {
			t.Errorf("job %d: sequential columnar %+v != memory reference %+v", i, seq[i], ref[i])
		}
		if par[i] != ref[i] {
			t.Errorf("job %d: pooled columnar %+v != memory reference %+v", i, par[i], ref[i])
		}
	}
}

// TestColumnarKillResume is the columnar leg of the kill/resume
// acceptance test: a journaled suite over columnar sources, canceled
// after 40 completed cells and resumed from its checkpoint, produces
// exactly the Results of an uninterrupted run.
func TestColumnarKillResume(t *testing.T) {
	jobs := columnarJobs(t, 1024)
	want := sim.NewScheduler(0).RunAll(jobs)

	path := filepath.Join(t.TempDir(), "columnar-suite.ckpt")
	j1, err := sim.CreateJournal(path)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	j1.OnCell = func(sim.Result) {
		if completed.Add(1) == 40 {
			cancel()
		}
	}
	partial := sim.NewScheduler(8).WithContext(ctx).WithJournal(j1).RunAll(jobs)
	if err := j1.Close(); err != nil {
		t.Fatalf("closing journal after kill: %v", err)
	}
	sawCancel := false
	for i, r := range partial {
		switch {
		case r.Err == nil:
			if r != want[i] {
				t.Fatalf("partial run cell %d: %+v != reference %+v", i, r, want[i])
			}
		case errors.Is(r.Err, context.Canceled):
			sawCancel = true
		default:
			t.Fatalf("partial run cell %d: unexpected error %v", i, r.Err)
		}
	}
	if !sawCancel {
		t.Fatalf("the kill did not interrupt the run; the resume leg would prove nothing")
	}

	j2, err := sim.ResumeJournal(path)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer j2.Close()
	cached := j2.Cells()
	if cached == 0 || cached >= len(jobs) {
		t.Fatalf("journal cached %d cells, want a strict partial of %d", cached, len(jobs))
	}
	got := sim.NewScheduler(8).WithJournal(j2).RunAll(jobs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("resumed cell %d: %+v != uninterrupted %+v", i, got[i], want[i])
		}
	}
}

// TestColumnarSchedulerRace drives concurrent block iteration through
// the scheduler pool: every task runs sim.Run directly against ONE
// shared *Columnar (each sim.Run pulls its own BlockStream off the
// shared handle), so -race observes the iterators proving their
// no-shared-mutable-state contract.
func TestColumnarSchedulerRace(t *testing.T) {
	mem := suiteTraces()[0]
	c := columnarize(t, mem, 512)
	specs := zoo.Known()
	want := make([]sim.Result, len(specs))
	for i, spec := range specs {
		want[i] = sim.Run(zoo.MustNew(spec), c)
	}
	const rounds = 4
	got := make([]sim.Result, rounds*len(specs))
	errs := sim.NewScheduler(8).Do(len(got), func(i int) error {
		got[i] = sim.Run(zoo.MustNew(specs[i%len(specs)]), c)
		return nil
	})
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range got {
		if r != want[i%len(specs)] {
			t.Errorf("concurrent run %d: %+v != sequential %+v", i, r, want[i%len(specs)])
		}
	}
}
