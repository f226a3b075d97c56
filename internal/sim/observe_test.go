package sim_test

import (
	"reflect"
	"testing"

	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// observeWorkload materializes a small deterministic workload for the
// observability tests.
func observeWorkload(t testing.TB, name string, dynamic int) *trace.Memory {
	t.Helper()
	prof, ok := synth.ProfileByName(name)
	if !ok {
		t.Fatalf("no profile %q", name)
	}
	return trace.Materialize(synth.MustWorkload(prof.WithDynamic(dynamic)))
}

// TestObserveMatchesRun pins the tentpole invariant: the instrumented tier
// must count exactly what the uninstrumented engine counts, for every
// capability shape in the zoo (BatchRunner, Predict/Update only, a
// Probe without a kernel, no Probe).
func TestObserveMatchesRun(t *testing.T) {
	mem := observeWorkload(t, "gcc", 60000)
	specs := []string{
		"bimode:b=9",          // BatchRunner + Probe
		"trimode:b=8",         // BatchRunner + Probe
		"gshare:i=10,h=10",    // BatchRunner + Probe
		"gshare:i=10,h=7",     // multi-PHT
		"smith:a=10",          // PC-indexed Probe
		"agree:i=10,h=10,b=8", // Probe with bias-bit choice
		"gas:h=8,s=2",         // Probe without a kernel or choice
		"taken",               // no Probe
	}
	for _, spec := range specs {
		runRes := sim.Run(zoo.MustNew(spec), mem)
		rep := sim.Observe(zoo.MustNew(spec), mem, sim.ObserveOptions{TopN: 5})
		if rep.Branches != runRes.Branches || rep.Mispredicts != runRes.Mispredicts {
			t.Errorf("%s: Observe counted %d/%d, Run counted %d/%d",
				spec, rep.Mispredicts, rep.Branches, runRes.Mispredicts, runRes.Branches)
		}
		if rep.Predictor != runRes.Predictor || rep.CostBytes != runRes.CostBytes {
			t.Errorf("%s: identity mismatch: %q/%g vs %q/%g",
				spec, rep.Predictor, rep.CostBytes, runRes.Predictor, runRes.CostBytes)
		}
		if rep.WallSeconds <= 0 || rep.BranchesPerSec <= 0 {
			t.Errorf("%s: missing throughput metrics: %+v", spec, rep)
		}
	}
}

// TestObserveLeavesIdenticalState checks that probing is read-only: a
// predictor driven through Observe ends in the same state as one driven
// through Run, witnessed by identical predictions on a follow-up trace.
func TestObserveLeavesIdenticalState(t *testing.T) {
	mem := observeWorkload(t, "go", 40000)
	tail := observeWorkload(t, "compress", 10000)
	for _, spec := range []string{"bimode:b=8", "trimode:b=7", "agree:i=9,h=9,b=7"} {
		p1, p2 := zoo.MustNew(spec), zoo.MustNew(spec)
		sim.Run(p1, mem)
		sim.Observe(p2, mem, sim.ObserveOptions{})
		r1 := sim.Run(p1, tail)
		r2 := sim.Run(p2, tail)
		if r1.Mispredicts != r2.Mispredicts {
			t.Errorf("%s: state diverged: tail mispredicts %d vs %d", spec, r1.Mispredicts, r2.Mispredicts)
		}
	}
}

// TestObserveMetricsInvariants checks the internal consistency of the
// collected metrics on a predictor with every capability (bi-mode).
func TestObserveMetricsInvariants(t *testing.T) {
	mem := observeWorkload(t, "gcc", 60000)
	rep := sim.Observe(zoo.MustNew("bimode:b=8"), mem, sim.ObserveOptions{TopN: 8})

	m := rep.Interference
	if m == nil {
		t.Fatal("bi-mode report has no interference metrics")
	}
	if m.Counters != 2<<8 {
		t.Errorf("counters = %d, want %d", m.Counters, 2<<8)
	}
	if m.Destructive+m.Constructive+m.Neutral != m.Aliased {
		t.Errorf("aliasing classes %d+%d+%d do not partition aliased %d",
			m.Destructive, m.Constructive, m.Neutral, m.Aliased)
	}
	if m.Aliased+m.Cold > rep.Branches {
		t.Errorf("aliased %d + cold %d exceed branches %d", m.Aliased, m.Cold, rep.Branches)
	}
	if m.AliasedMispredicts > m.Aliased || m.AliasedMispredicts > rep.Mispredicts {
		t.Errorf("aliased mispredicts %d out of range", m.AliasedMispredicts)
	}

	c := rep.Choice
	if c == nil {
		t.Fatal("bi-mode report has no choice metrics")
	}
	if c.Branches != rep.Branches {
		t.Errorf("choice branches %d != %d", c.Branches, rep.Branches)
	}
	if c.AgreeOutcome <= 0 || c.AgreeOutcome > c.Branches {
		t.Errorf("choice agreement %d out of range", c.AgreeOutcome)
	}
	if c.PartialHold > c.Branches-c.AgreeOutcome {
		t.Errorf("partial holds %d exceed choice misses %d", c.PartialHold, c.Branches-c.AgreeOutcome)
	}
	if len(c.BankUse) != 2 {
		t.Fatalf("bank use %v, want two banks", c.BankUse)
	}
	if c.BankUse[0]+c.BankUse[1] != rep.Branches {
		t.Errorf("bank selections %v do not sum to branches %d", c.BankUse, rep.Branches)
	}

	if len(rep.TopBranches) == 0 || len(rep.TopBranches) > 8 {
		t.Fatalf("top branches length %d out of bounds", len(rep.TopBranches))
	}
	for i := range rep.TopBranches {
		b := rep.TopBranches[i]
		if i > 0 && b.Mispredicts > rep.TopBranches[i-1].Mispredicts {
			t.Errorf("top branches not sorted at %d", i)
		}
		if b.Mispredicts > b.Count || b.Taken > b.Count {
			t.Errorf("implausible branch metrics %+v", b)
		}
	}
	if rep.TopShare <= 0 || rep.TopShare > 1 {
		t.Errorf("top share %g out of range", rep.TopShare)
	}
	if rep.StaticBranches <= 0 || rep.StaticBranches > mem.StaticCount() {
		t.Errorf("static branches %d out of range", rep.StaticBranches)
	}
}

// TestObserveGracefulDegradation: predictors without Probe still
// get counts, throughput and the H2P ranking.
func TestObserveGracefulDegradation(t *testing.T) {
	mem := observeWorkload(t, "xlisp", 30000)
	rep := sim.Observe(zoo.MustNew("taken"), mem, sim.ObserveOptions{TopN: 4})
	if rep.Interference != nil || rep.Choice != nil {
		t.Errorf("static predictor should carry no probe metrics: %+v", rep)
	}
	if rep.Branches != mem.Len() || len(rep.TopBranches) == 0 {
		t.Errorf("base metrics missing: %+v", rep)
	}
	if rep.Mispredicts == 0 {
		t.Error("always-taken should mispredict somewhere")
	}

	// TopN < 0 disables the ranking.
	rep = sim.Observe(zoo.MustNew("smith:a=8"), mem, sim.ObserveOptions{TopN: -1})
	if len(rep.TopBranches) != 0 {
		t.Errorf("TopN<0 should disable ranking, got %d rows", len(rep.TopBranches))
	}
}

// TestObserverIncremental: an Observer fed a trace in uneven blocks, and
// snapshotted into a fresh observer between every block, reports exactly
// what one Observe pass does — minus the timing only Observe stamps.
func TestObserverIncremental(t *testing.T) {
	mem := observeWorkload(t, "gcc", 30000)
	recs := mem.Records()
	for _, spec := range []string{"bimode:b=9", "trimode:b=8", "gshare:i=10,h=10", "smith:a=10"} {
		want := sim.Observe(zoo.MustNew(spec), mem, sim.ObserveOptions{TopN: 7})
		want.Workload, want.WallSeconds, want.BranchesPerSec = "", 0, 0

		o := sim.NewObserver(zoo.MustNew(spec))
		for pos, n := 0, 1; pos < len(recs); pos, n = pos+n, n*3+1 {
			o.Feed(recs[pos:min(pos+n, len(recs))])
			snap := o.Snapshot(nil)
			o = sim.NewObserver(zoo.MustNew(spec))
			if err := o.Restore(snap); err != nil {
				t.Fatalf("%s: restoring at %d: %v", spec, pos, err)
			}
		}
		if got := o.Report(7); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: incremental report\n%+v\nwant\n%+v", spec, got, want)
		}
	}
}

// TestObserverRestoreRejects: snapshots that do not fit the receiving
// observer's predictor, or whose counts do not add up, are refused.
func TestObserverRestoreRejects(t *testing.T) {
	mem := observeWorkload(t, "compress", 5000)
	o := sim.NewObserver(zoo.MustNew("bimode:b=8"))
	o.Feed(mem.Records())
	snap := o.Snapshot(nil)
	if err := sim.NewObserver(zoo.MustNew("bimode:b=9")).Restore(snap); err == nil {
		t.Error("a bimode:b=8 snapshot restored into bimode:b=9")
	}
	if err := sim.NewObserver(zoo.MustNew("smith:a=8")).Restore(snap); err == nil {
		t.Error("a bimode snapshot restored into smith")
	}
	if err := sim.NewObserver(zoo.MustNew("bimode:b=8")).Restore(snap[:len(snap)-1]); err == nil {
		t.Error("a truncated snapshot restored")
	}
	if err := sim.NewObserver(zoo.MustNew("bimode:b=8")).Restore(append(snap, 0)); err == nil {
		t.Error("a snapshot with trailing bytes restored")
	}
	if err := sim.NewObserver(zoo.MustNew("taken")).Restore(snap); err == nil {
		t.Error("an observer over a predictor without snapshots restored")
	}
}

// TestObserverFeedAllocs: once the per-static arrays cover the trace's
// statics and the strip rows exist, Feed allocates nothing, whether a
// probe kernel or the generic fill writes the rows.
func TestObserverFeedAllocs(t *testing.T) {
	recs := observeWorkload(t, "gcc", 5000).Records()
	for _, spec := range []string{"bimode:b=11", "gshare:i=12,h=12", "trimode:b=9", "agree:i=10,h=10,b=8", "gas:h=8,s=2", "taken"} {
		o := sim.NewObserver(zoo.MustNew(spec))
		o.Feed(recs) // grows the per-static arrays, the rows and the bank-use list
		if n := testing.AllocsPerRun(10, func() { o.Feed(recs) }); n != 0 {
			t.Errorf("%s: a steady-state Feed allocates %v times", spec, n)
		}
	}
}
