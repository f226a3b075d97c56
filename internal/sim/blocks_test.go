package sim_test

// Block-boundary differential test for the block driver: trace.Blocks cuts
// materialized and stream-only traces into 64Ki-record blocks and passes a
// columnar trace's own blocks through, so every record count around a
// 64Ki multiple, for every source shape and every engine tier, must give
// exactly what the capability-free RunGeneric loop gives. The suite-trace
// oracles never reach a block boundary; this test exists to cross them.
// RunDelayed, which runs through the same driver behind a lag adapter,
// is held to its stream-loop oracle here too.

import (
	"context"
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// blockRecords is the block size trace.Blocks cuts non-columnar sources
// into.
const blockRecords = 1 << 16

// genericSpec is the tier specs' predictor with only Predict/Update:
// YAGS, whose RunBatch newTierPredictor hides.
const genericSpec = "yags:c=11,e=10,h=10,t=6"

// predictUpdateOnly hides every method of a predictor but those of
// predictor.Predictor, so the driver runs it Predict then Update per
// record.
type predictUpdateOnly struct{ predictor.Predictor }

// newTierPredictor builds spec, behind predictUpdateOnly when it is
// genericSpec.
func newTierPredictor(spec string) predictor.Predictor {
	p := zoo.MustNew(spec)
	if spec == genericSpec {
		return predictUpdateOnly{p}
	}
	return p
}

// tierSpecs returns specs for both engine tiers: two BatchRunners (the
// bi-mode kernel and the GAs kernel the zoo's gselect is built on) and a
// predictor with only Predict/Update. Build them with newTierPredictor.
func tierSpecs(t *testing.T) []string {
	t.Helper()
	batchSpecs := []string{"bimode:b=11", "gselect:a=6,h=6"}
	for _, spec := range batchSpecs {
		if _, ok := newTierPredictor(spec).(predictor.BatchRunner); !ok {
			t.Fatalf("%s is not a BatchRunner", spec)
		}
	}
	if _, ok := newTierPredictor(genericSpec).(predictor.BatchRunner); ok {
		t.Fatalf("%s is a BatchRunner", genericSpec)
	}
	return append(batchSpecs, genericSpec)
}

// timeless zeroes a report's wall-clock fields so reports compare by
// their simulation content alone.
func timeless(rep *sim.Report) *sim.Report {
	rep.WallSeconds, rep.BranchesPerSec = 0, 0
	return rep
}

func TestBlockBoundaryDifferential(t *testing.T) {
	counts := []int{0, 1, blockRecords - 1, blockRecords, blockRecords + 1, 3*blockRecords + 1}
	full := trace.Materialize(synth.MustWorkload(synth.Profiles()[0].WithDynamic(counts[len(counts)-1])))
	specs := tierSpecs(t)

	// The three sources of one count hold the same records, so they are
	// one journaled cell: the first runs it and the other two are served
	// from the journal.
	journal, err := sim.CreateJournal(filepath.Join(t.TempDir(), "blocks.ckpt"))
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sched := sim.NewScheduler(2).WithContext(ctx).WithJournal(journal)

	for _, n := range counts {
		mem := trace.NewMemory(full.Name(), full.StaticCount(), full.Records()[:n])
		sources := []struct {
			name string
			src  trace.Source
		}{
			{"memory", mem},
			{"stream", hideCaps{mem}},
			{"columnar", columnarize(t, mem, trace.DefaultColumnarBlock)},
		}
		for _, spec := range specs {
			t.Run(fmt.Sprintf("n=%d/%s", n, spec), func(t *testing.T) {
				ref := sim.RunGeneric(newTierPredictor(spec), mem)
				if ref.Branches != n {
					t.Fatalf("generic loop saw %d branches, want %d", ref.Branches, n)
				}
				const lag = 3
				delayed := runDelayedLoop(newTierPredictor(spec), mem, lag)
				var firstRep *sim.Report
				for _, s := range sources {
					if got := sim.Run(newTierPredictor(spec), s.src); got != ref {
						t.Errorf("%s: Run %+v != generic %+v", s.name, got, ref)
					}
					if got := sim.RunDelayed(newTierPredictor(spec), s.src, lag); got != delayed {
						t.Errorf("%s: RunDelayed %+v != its loop %+v", s.name, got, delayed)
					}
					job := sim.Job{Make: func() predictor.Predictor { return newTierPredictor(spec) }, Source: s.src}
					if got := sched.RunAll([]sim.Job{job})[0]; got != ref {
						t.Errorf("%s: journaled RunAll %+v != generic %+v", s.name, got, ref)
					}
					rep := timeless(sim.Observe(newTierPredictor(spec), s.src, sim.ObserveOptions{}))
					if rep.Branches != ref.Branches || rep.Mispredicts != ref.Mispredicts {
						t.Errorf("%s: Observe counted %d/%d, generic %d/%d",
							s.name, rep.Mispredicts, rep.Branches, ref.Mispredicts, ref.Branches)
					}
					if firstRep == nil {
						firstRep = rep
					} else if !reflect.DeepEqual(rep, firstRep) {
						t.Errorf("%s: Observe report differs from the %s source's:\n%+v\n%+v",
							s.name, sources[0].name, rep, firstRep)
					}
				}
			})
		}
	}

	if err := journal.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
}
