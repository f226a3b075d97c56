package sim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"

	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Scheduler executes independent simulation jobs on a bounded goroutine
// pool. It is the one concurrency primitive of the suite layer: RunAll,
// the gshare.best search and every generator in internal/experiments
// dispatch through a Scheduler, and nothing else in the repository spawns
// goroutines on the simulation path.
//
// A Scheduler with zero workers runs every job inline on the caller's
// goroutine, in submission order, with no pool machinery at all. That
// sequential path is load-bearing: it is the ground truth the determinism
// oracle compares the pool against (parallel output must be byte-identical
// to it), so it must remain reachable forever — the CLIs expose it as
// `-parallel 0`.
//
// Regardless of worker count, job panics are recovered per job and
// surfaced as errors (Result.Err for RunAll) rather than taking down the
// whole suite, and the expvar counters sim_sched_jobs_inflight /
// sim_sched_jobs_completed track progress. A failed job is never
// retried: every job here is a pure function of its predictor and its
// trace, so a second attempt would fail the same way.
//
// Two optional attachments, each set by a With* copy (the zero
// configuration has neither):
//
//   - WithContext: a Context whose cancellation stops the fan-out in
//     bounded time — queued jobs are skipped with a context.Canceled
//     error, running RunAll cells stop at the next record block (see
//     trace.Blocks), and completed results are kept.
//   - WithJournal: a checkpoint file that records completed cells and
//     serves them back on a resumed run; see Journal.
type Scheduler struct {
	workers int
	ctx     context.Context
	journal *Journal
}

// NewScheduler returns a scheduler with the given number of pool workers.
// workers <= 0 yields the sequential reference scheduler.
func NewScheduler(workers int) *Scheduler {
	if workers < 0 {
		workers = 0
	}
	return &Scheduler{workers: workers}
}

// DefaultScheduler returns the scheduler package-level entry points use:
// one worker per GOMAXPROCS.
func DefaultScheduler() *Scheduler {
	return NewScheduler(runtime.GOMAXPROCS(0))
}

// WithContext returns a copy of s whose fan-outs stop cooperatively when
// ctx is canceled. The scheduler never fails results that completed
// before the cancellation: RunAll returns them alongside the canceled
// slots.
func (s *Scheduler) WithContext(ctx context.Context) *Scheduler {
	c := *s
	c.ctx = ctx
	return &c
}

// WithJournal returns a copy of s that checkpoints completed RunAll cells
// into j and serves cached cells from it; see Journal.
func (s *Scheduler) WithJournal(j *Journal) *Scheduler {
	c := *s
	c.journal = j
	return &c
}

// Context returns the scheduler's cancellation context
// (context.Background() unless WithContext attached one).
func (s *Scheduler) Context() context.Context {
	if s.ctx != nil {
		return s.ctx
	}
	return context.Background()
}

// Do runs task(0) .. task(n-1) and returns one error slot per task. With
// workers, tasks are distributed over the pool; without, they run inline
// in index order. A panicking task is recovered into its error slot and
// the remaining tasks still run. Tasks writing to disjoint slots of a
// shared slice indexed by their argument is the intended result-passing
// pattern; Do establishes the necessary happens-before edges. n <= 0
// returns an empty slice. Cancellation applies as in DoContext; tasks
// that want to observe the context (for cooperative cancellation checks)
// use DoContext directly.
func (s *Scheduler) Do(n int, task func(int) error) []error {
	return s.DoContext(n, func(_ context.Context, i int) error { return task(i) })
}

// DoContext is Do for context-aware tasks: each task receives the
// scheduler's context. Jobs not yet started when that context is
// canceled are skipped with a context.Canceled error in their slot
// (counted by sim_sched_cancelled).
func (s *Scheduler) DoContext(n int, task func(ctx context.Context, i int) error) []error {
	if n <= 0 {
		return nil
	}
	ctx := s.Context()
	errs := make([]error, n)
	// run executes job i on behalf of worker w; w doubles as the expvar
	// shard so workers never contend on a counter cache line.
	run := func(w, i int) {
		schedInFlight.add(w, 1)
		defer func() {
			schedInFlight.add(w, -1)
			schedCompleted.add(w, 1)
		}()
		errs[i] = attempt(ctx, n, i, task)
		if errors.Is(errs[i], context.Canceled) {
			schedCancelled.add(w, 1)
		}
	}

	workers := min(s.workers, n)
	if workers == 0 {
		for i := 0; i < n; i++ {
			run(0, i)
		}
		return errs
	}

	// Work-stealing-free dispatch: an atomic cursor the workers claim
	// indices from. The previous channel dispatch cost two goroutine
	// rendezvous per job (send + receive on an unbuffered channel, each a
	// scheduler round-trip); the cursor is one uncontended-in-the-common-
	// case atomic add, so the pool's per-job overhead no longer dwarfs
	// short jobs.
	var wg sync.WaitGroup
	var cursor atomic.Int64
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				i := int(cursor.Add(1)) - 1
				if i >= n {
					return
				}
				run(w, i)
			}
		}(w)
	}
	wg.Wait()
	return errs
}

// attempt runs job i once on ctx, with panic recovery. A job whose
// context is already canceled is skipped, so a canceled suite stops
// dispatching at once and leaves the untouched jobs tagged rather than
// half-run. A panic whose value is an error is wrapped with %w so its
// chain (context sentinels, typed decode errors) survives the recovery.
func attempt(ctx context.Context, n, i int, task func(context.Context, int) error) (err error) {
	if err := ctx.Err(); err != nil {
		return err
	}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("sim: job %d of %d panicked: %w", i, n, e)
			} else {
				err = fmt.Errorf("sim: job %d of %d panicked: %v", i, n, r)
			}
		}
	}()
	return task(ctx, i)
}

// RunAll executes the jobs through the scheduler and returns results in
// job order, byte-identical to the sequential scheduler's output. Each
// distinct Source is materialized once up front and the in-memory trace
// shared (read-only) by every worker, so an N-predictor sweep over one
// workload regenerates the trace once instead of N times and every cell
// takes the batched fast path. A job that panics (in Make, the predictor,
// or the source) yields a Result whose Err field records the panic; the
// other jobs are unaffected. Under a canceled context the completed
// prefix is returned, with context.Canceled-tagged Err fields on the
// remaining slots; with a journal attached, completed cells are
// checkpointed, and a cell the journal already holds is served from it.
//
//bimode:deterministic
func (s *Scheduler) RunAll(jobs []Job) []Result {
	results := make([]Result, len(jobs))
	shared, matErrs := s.sharedSources(jobs)
	keys := make([]traceKey, len(jobs))
	if s.journal != nil {
		// Each distinct trace is checksummed once per fan-out.
		memo := map[*trace.Memory]traceKey{}
		for i, m := range shared {
			if m == nil {
				continue
			}
			k, ok := memo[m]
			if !ok {
				k = keyTrace(m)
				memo[m] = k
			}
			keys[i] = k
		}
	}
	errs := s.DoContext(len(jobs), func(ctx context.Context, i int) error {
		if matErrs[i] != nil {
			return matErrs[i]
		}
		res, err := s.runCell(ctx, jobs[i], shared[i], keys[i])
		if err != nil {
			return err
		}
		results[i] = res
		return nil
	})
	for i, err := range errs {
		if err == nil {
			continue
		}
		results[i] = Result{Err: err, Workload: safeSourceName(jobs[i].Source)}
	}
	return results
}

// runCell simulates one RunAll cell with the block driver under the
// cell's context. With a journal attached, a cell the journal holds is
// served from it, and a cell that runs to completion is journaled.
//
//bimode:deterministic
func (s *Scheduler) runCell(ctx context.Context, job Job, src *trace.Memory, tk traceKey) (Result, error) {
	p := job.Make()
	res := Result{
		Predictor: p.Name(),
		Workload:  src.Name(),
		CostBytes: predictor.CostBytes(p),
	}
	j := s.journal
	key := cellKey{Predictor: res.Predictor, traceKey: tk}
	if j != nil {
		if miss, ok := j.cell(key); ok {
			res.Branches, res.Mispredicts = tk.Records, miss
			return res, nil
		}
	}
	var err error
	res.Branches, res.Mispredicts, err = drive(ctx, p, src)
	if err != nil {
		return Result{}, err
	}
	if j != nil {
		j.recordCell(key, res)
	}
	return res, nil
}

// safeSourceName names a source for an error-carrying Result without
// trusting the source not to panic again.
func safeSourceName(src trace.Source) (name string) {
	if src == nil {
		return ""
	}
	defer func() { _ = recover() }()
	return src.Name()
}

// sharedSources maps each job to a materialized trace, deduplicating
// identical sources by interface identity; the distinct materializations
// themselves run through the scheduler (and therefore observe the
// cancellation context cooperatively, via trace.MaterializeContext). Sources whose dynamic type is not comparable
// cannot be used as memo keys and are materialized individually. A source
// whose materialization panics or fails gets a nil slot and a per-job
// error for every job that shares it.
func (s *Scheduler) sharedSources(jobs []Job) ([]*trace.Memory, []error) {
	out := make([]*trace.Memory, len(jobs))
	jobErrs := make([]error, len(jobs))

	// First pass, sequential: resolve already-materialized sources and
	// group the rest into distinct materialization slots.
	type slot struct {
		src  trace.Source
		idxs []int
	}
	var slots []*slot
	var memo map[trace.Source]*slot
	for i, j := range jobs {
		src := j.Source
		if src == nil {
			continue
		}
		if m, ok := src.(*trace.Memory); ok {
			out[i] = m
			continue
		}
		if !reflect.TypeOf(src).Comparable() {
			slots = append(slots, &slot{src: src, idxs: []int{i}})
			continue
		}
		if sl, ok := memo[src]; ok {
			sl.idxs = append(sl.idxs, i)
			continue
		}
		sl := &slot{src: src, idxs: []int{i}}
		if memo == nil {
			memo = map[trace.Source]*slot{}
		}
		memo[src] = sl
		slots = append(slots, sl)
	}

	// Second pass: materialize the distinct sources through the pool.
	mems := make([]*trace.Memory, len(slots))
	matErrs := s.DoContext(len(slots), func(ctx context.Context, k int) error {
		m, err := trace.MaterializeContext(ctx, slots[k].src)
		mems[k] = m
		return err
	})
	for k, sl := range slots {
		for _, i := range sl.idxs {
			out[i] = mems[k]
			jobErrs[i] = matErrs[k]
		}
	}
	return out, jobErrs
}

// SweepGshare simulates every gshare history length 0..indexBits at a
// fixed second-level size over all sources through the scheduler. The
// returned matrix is indexed [historyBits][source].
func (s *Scheduler) SweepGshare(indexBits int, sources []trace.Source) [][]Result {
	return sweepGshare(s, indexBits, sources)
}

// FindBestGshare is the scheduler-routed form of the package-level
// FindBestGshare.
func (s *Scheduler) FindBestGshare(indexBits int, sources []trace.Source) BestGshare {
	return PickBestGshare(indexBits, s.SweepGshare(indexBits, sources))
}
