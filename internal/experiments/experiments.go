// Package experiments defines one driver per table and figure of the
// paper's evaluation, each returning a typed result that the renderers in
// this package turn into text tables, ASCII figures and CSV. The mapping
// from paper artifact to driver is recorded in DESIGN.md's experiment
// index; measured-vs-paper values live in EXPERIMENTS.md.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/workloads"
)

// Config adjusts experiment scale. The zero value runs the defaults used
// by EXPERIMENTS.md.
type Config struct {
	// Dynamic overrides every workload's dynamic branch count; 0 keeps
	// the calibrated per-benchmark defaults (paper counts / 8).
	Dynamic int
	// MinSizeBits/MaxSizeBits bound the gshare size axis as log2(counter
	// count): defaults 10..17 = 0.25 KB .. 32 KB, the paper's axis.
	MinSizeBits, MaxSizeBits int
	// Sched executes every simulation and materialization job of the
	// experiment drivers. nil uses sim.DefaultScheduler() (GOMAXPROCS
	// workers); sim.NewScheduler(0) is the sequential oracle path that
	// every parallel run is proven byte-identical to. The scheduler never
	// affects results, only wall clock.
	Sched *sim.Scheduler
}

func (c Config) withDefaults() Config {
	if c.MinSizeBits == 0 {
		c.MinSizeBits = 10
	}
	if c.MaxSizeBits == 0 {
		c.MaxSizeBits = 17
	}
	return c
}

// sched returns the scheduler experiment drivers dispatch through.
func (c Config) sched() *sim.Scheduler {
	if c.Sched != nil {
		return c.Sched
	}
	return sim.DefaultScheduler()
}

// suiteMemo caches materialized suites across SuiteSources calls, keyed
// by the two parameters that determine the trace contents. cmd/paper,
// cmd/sweep and the benchmarks all sweep the same suites repeatedly;
// without the memo each call regenerated identical multi-million-branch
// traces from scratch. A run holds about two keys, so one mutex guards
// the map; each entry materializes under its own mutex, so concurrent
// requests for the same key share a single materialization and the map
// lock is never held across trace generation. The entry deliberately
// does NOT use sync.Once: Once treats a panicked f as done, so a
// generation that fails (canceled context, injected fault) would poison
// the entry forever and every later caller would silently see an empty
// suite — zero jobs, zero-branch artifacts, exit 0. A failed
// materialization leaves done=false so the next caller retries cold.
var suiteMemo struct {
	sync.Mutex
	m map[suiteKey]*suiteEntry
}

type suiteKey struct {
	suite   string
	dynamic int
}

type suiteEntry struct {
	mu   sync.Mutex
	done bool
	mems []*trace.Memory
}

// memoEntry returns the (unique, process-wide) entry for a key.
func memoEntry(key suiteKey) *suiteEntry {
	suiteMemo.Lock()
	defer suiteMemo.Unlock()
	if suiteMemo.m == nil {
		suiteMemo.m = map[suiteKey]*suiteEntry{}
	}
	e, ok := suiteMemo.m[key]
	if !ok {
		e = &suiteEntry{}
		suiteMemo.m[key] = e
	}
	return e
}

// SuiteSources materializes the named suite's workloads once per (suite,
// Dynamic) and memoizes the result process-wide, so every simulation
// replays the same immutable in-memory traces; the per-workload
// materializations of a cold entry run through cfg's scheduler. Callers
// receive a fresh slice; the traces themselves are shared and must not be
// mutated.
func SuiteSources(suite string, cfg Config) []trace.Source {
	e := memoEntry(suiteKey{suite: suite, dynamic: cfg.Dynamic})
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.done {
		var profs []synth.Profile
		for _, p := range synth.Profiles() {
			if p.Suite != suite {
				continue
			}
			if cfg.Dynamic > 0 {
				p = p.WithDynamic(cfg.Dynamic)
			}
			profs = append(profs, p)
		}
		mems := make([]*trace.Memory, len(profs))
		mustAll(cfg.sched().DoContext(len(profs), func(ctx context.Context, i int) error {
			m, err := trace.MaterializeContext(ctx, synth.MustWorkload(profs[i]))
			if err != nil {
				return err
			}
			mems[i] = m
			return nil
		}))
		e.mems = mems
		e.done = true
	}
	out := make([]trace.Source, len(e.mems))
	for i, m := range e.mems {
		out[i] = m
	}
	return out
}

// mustAll re-raises the first captured panic from a Scheduler.Do fan-out
// whose tasks are infallible by contract (the generators here wrap
// Must-constructors); keeping the panic loud matches the sequential
// behavior exactly instead of memoizing or returning holes.
func mustAll(errs []error) {
	for _, err := range errs {
		if err != nil {
			panic(err)
		}
	}
}

// firstErr collapses a Scheduler.Do error slice for drivers with an error
// return: the lowest-index failure wins, matching what a sequential loop
// that stopped at the first error would have reported.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// Workload materializes one named workload: a suite benchmark comes from
// the SuiteSources memo, a program workload is generated afresh.
func Workload(name string, cfg Config) (trace.Source, error) {
	if prof, ok := synth.ProfileByName(name); ok {
		for _, src := range SuiteSources(prof.Suite, cfg) {
			if src.Name() == name {
				return src, nil
			}
		}
	}
	src, err := workloads.Get(name, workloads.Options{Dynamic: cfg.Dynamic})
	if err != nil {
		return nil, err
	}
	return trace.Materialize(src), nil
}

// kb formats a byte count the way the paper's size axis does.
func kb(bytes float64) string {
	switch {
	case bytes >= 1024:
		return fmt.Sprintf("%gK", bytes/1024)
	default:
		return fmt.Sprintf("%gB", bytes)
	}
}
