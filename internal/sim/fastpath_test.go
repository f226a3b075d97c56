package sim_test

// Differential correctness gate for the batched/fused simulation fast
// path: for every registered predictor spec and every synthetic suite
// workload, sim.Run (which runs a predictor.BatchRunner's kernel over
// each block of records) must produce bit-identical results to
// sim.RunGeneric, the capability-free Predict/Update stream loop. The
// fast path is an optimization, never a semantic fork.

import (
	"math/rand/v2"
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

// TestRunBatchMatchesPredictUpdate runs every BatchRunner's kernel over
// random-length chunks (zero- and one-record ones included, so an
// unrolled kernel's tail path runs too) in lockstep with a twin driven
// through Predict+Update, comparing each chunk's mispredict count, then
// drives both through Predict+Update over a tail, comparing every
// prediction: a kernel that leaves a table or history register behind
// predicts the tail differently.
func TestRunBatchMatchesPredictUpdate(t *testing.T) {
	recs := suiteTraces()[0].Records()
	body, tail := recs[:len(recs)*4/5], recs[len(recs)*4/5:]
	predictUpdate := func(p predictor.Predictor, r trace.Record) bool {
		pred := p.Predict(r.PC)
		p.Update(r.PC, r.Taken)
		return pred
	}
	for _, spec := range fastpathSpecs() {
		batch := zoo.MustNew(spec)
		runner, ok := batch.(predictor.BatchRunner)
		if !ok {
			continue
		}
		twin := zoo.MustNew(spec)
		rng := rand.New(rand.NewPCG(uint64(len(spec)), 7))
		for pos := 0; pos < len(body); {
			chunk := body[pos : pos+min(rng.IntN(1024), len(body)-pos)]
			want := 0
			for _, r := range chunk {
				if predictUpdate(twin, r) != r.Taken {
					want++
				}
			}
			if got := runner.RunBatch(chunk); got != want {
				t.Fatalf("%s: chunk at %d (%d records): RunBatch=%d mispredicts, Predict+Update=%d",
					spec, pos, len(chunk), got, want)
			}
			pos += len(chunk)
		}
		for i, r := range tail {
			if got, want := predictUpdate(batch, r), predictUpdate(twin, r); got != want {
				t.Fatalf("%s: tail branch %d (pc %#x) after RunBatch: Predict=%v, twin Predict=%v",
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
