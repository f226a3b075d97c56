package sim_test

// Differential correctness gate for the batched/fused simulation fast
// path: for every registered predictor spec and every synthetic suite
// workload, sim.Run (which runs a predictor.BatchRunner's kernel over
// each block of records) must produce bit-identical results to
// sim.RunGeneric, the capability-free Predict/Update stream loop. The
// fast path is an optimization, never a semantic fork.

import (
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// fastpathDynamic keeps the all-specs x all-workloads grid fast enough
// for `go test` while still exercising table wraparound and saturation.
const fastpathDynamic = 20000

// fastpathSpecs is every registered predictor family (one example spec
// each) plus the bi-mode ablation variants, whose update policies take
// different branches through the fused loops.
func fastpathSpecs() []string {
	return append(zoo.Known(),
		"bimode:b=8,fullchoice=1",
		"bimode:b=8,bothbanks=1",
		"bimode:c=6,b=8,h=5",
		"gshare:i=10,h=0",
	)
}

// suiteTraces materializes every workload of both synthetic suites at the
// reduced dynamic count.
func suiteTraces() []*trace.Memory {
	var out []*trace.Memory
	for _, p := range synth.Profiles() {
		out = append(out, trace.Materialize(synth.MustWorkload(p.WithDynamic(fastpathDynamic))))
	}
	return out
}

// hideCaps wraps a Source so only the base trace.Source methods are in
// its method set: type assertions to trace.Batched or trace.Sized fail,
// forcing sim.Run down the stream path.
type hideCaps struct{ trace.Source }

func TestFastPathEquivalence(t *testing.T) {
	traces := suiteTraces()
	if len(traces) != 14 {
		t.Fatalf("expected the 14 suite workloads, got %d", len(traces))
	}
	for _, spec := range fastpathSpecs() {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			for _, mem := range traces {
				ref := sim.RunGeneric(zoo.MustNew(spec), mem)
				if ref.Branches != mem.Len() {
					t.Fatalf("%s: generic loop saw %d branches, trace has %d",
						mem.Name(), ref.Branches, mem.Len())
				}

				// Block driver over the materialized slice.
				fast := sim.Run(zoo.MustNew(spec), mem)
				if fast != ref {
					t.Errorf("%s: batched path %+v != generic %+v", mem.Name(), fast, ref)
				}

				// Stream path with capabilities hidden on the source side
				// (the driver cuts the stream into its own blocks).
				streamed := sim.Run(zoo.MustNew(spec), hideCaps{mem})
				if streamed != ref {
					t.Errorf("%s: stream path %+v != generic %+v", mem.Name(), streamed, ref)
				}
			}
		})
	}
}

// stepOnly has Predict/Update and a Step that must never be called: the
// simulator has no Step tier, so a Stepper without RunBatch runs on
// Predict/Update.
type stepOnly struct{ predictor.Predictor }

func (stepOnly) Step(uint64, bool) bool { panic("sim called Step") }

// TestStepperWithoutBatchRunsPredictUpdate checks that sim.Run drives a
// Stepper that is not a BatchRunner through Predict/Update, over every
// source shape, with RunGeneric's result.
func TestStepperWithoutBatchRunsPredictUpdate(t *testing.T) {
	mk := func() predictor.Predictor { return stepOnly{zoo.MustNew("gas:h=6,s=6")} }
	if _, ok := mk().(predictor.Stepper); !ok {
		t.Fatal("stepOnly is not a Stepper")
	}
	mem := suiteTraces()[0]
	ref := sim.RunGeneric(mk(), mem)
	for _, src := range []trace.Source{mem, hideCaps{mem}, columnarize(t, mem, trace.DefaultColumnarBlock)} {
		if got := sim.Run(mk(), src); got != ref {
			t.Errorf("%T: Run %+v != generic %+v", src, got, ref)
		}
	}
}

// TestStepMatchesPredictUpdate drives a Stepper in lockstep with a twin
// predictor using the split protocol, checking every individual
// prediction (a stronger property than equal mispredict totals).
func TestStepMatchesPredictUpdate(t *testing.T) {
	mem := suiteTraces()[0]
	for _, spec := range fastpathSpecs() {
		stepper, ok := zoo.MustNew(spec).(predictor.Stepper)
		if !ok {
			continue
		}
		twin := zoo.MustNew(spec)
		for i, r := range mem.Records() {
			want := twin.Predict(r.PC)
			twin.Update(r.PC, r.Taken)
			if got := stepper.Step(r.PC, r.Taken); got != want {
				t.Fatalf("%s: branch %d (pc %#x): Step=%v, Predict+Update=%v",
					spec, i, r.PC, got, want)
			}
		}
	}
}

// TestRunBatchSplitInvocation checks that RunBatch composes: running a
// trace as two half-batches must equal one whole batch (history and
// table state must round-trip through the batch boundary).
func TestRunBatchSplitInvocation(t *testing.T) {
	mem := suiteTraces()[0]
	recs := mem.Records()
	for _, spec := range fastpathSpecs() {
		whole, ok := zoo.MustNew(spec).(predictor.BatchRunner)
		if !ok {
			continue
		}
		split := zoo.MustNew(spec).(predictor.BatchRunner)
		want := whole.RunBatch(recs)
		half := len(recs) / 2
		got := split.RunBatch(recs[:half]) + split.RunBatch(recs[half:])
		if got != want {
			t.Errorf("%s: split batches %d mispredicts, whole batch %d", spec, got, want)
		}
	}
}
