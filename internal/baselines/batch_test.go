package baselines

import (
	"math/rand/v2"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/synth"
	"bimode/internal/trace"
)

// Chunked lockstep tests for the de-aliasing rivals' RunBatch kernels at
// geometries the zoo's one-spec-per-family oracles do not reach: RunBatch
// over random-length chunks must count, chunk for chunk, the mispredicts
// a twin driven by Predict+Update makes, and must leave behind the state
// the twin has. The second half is checked by running both through
// Predict+Update over a tail: a kernel that fails to write back its
// history register, a history table or a counter table predicts that
// tail differently.

// lockstepWorkload is one suite workload, long enough to wrap every table
// below many times.
func lockstepWorkload(t *testing.T) []trace.Record {
	t.Helper()
	p, ok := synth.ProfileByName("gcc")
	if !ok {
		t.Fatal("suite profile gcc missing")
	}
	return trace.Materialize(synth.MustWorkload(p.WithDynamic(30000))).Records()
}

// predictUpdate is the reference protocol for one branch: Predict, then
// Update with the outcome. It returns the prediction.
func predictUpdate(p predictor.Predictor, r trace.Record) bool {
	pred := p.Predict(r.PC)
	p.Update(r.PC, r.Taken)
	return pred
}

// batchLockstep runs one instance from mk through RunBatch over
// random-length chunks (zero- and one-record ones included) of the first
// 80% of lockstepWorkload and a twin through Predict+Update, then runs both
// through Predict+Update over the rest, comparing every prediction.
func batchLockstep(t *testing.T, mk func() predictor.Predictor) {
	t.Helper()
	all := lockstepWorkload(t)
	recs, tail := all[:len(all)*4/5], all[len(all)*4/5:]
	batch := mk()
	runner, ok := batch.(predictor.BatchRunner)
	if !ok {
		t.Fatalf("%s is not a BatchRunner", batch.Name())
	}
	twin := mk()
	name := batch.Name()
	rng := rand.New(rand.NewPCG(uint64(len(name)), 7))
	for pos := 0; pos < len(recs); {
		chunk := recs[pos : pos+min(rng.IntN(1024), len(recs)-pos)]
		want := 0
		for _, r := range chunk {
			if predictUpdate(twin, r) != r.Taken {
				want++
			}
		}
		if got := runner.RunBatch(chunk); got != want {
			t.Fatalf("%s: chunk at %d (%d records): RunBatch=%d mispredicts, Predict+Update=%d",
				name, pos, len(chunk), got, want)
		}
		pos += len(chunk)
	}
	for i, r := range tail {
		if got, want := predictUpdate(batch, r), predictUpdate(twin, r); got != want {
			t.Fatalf("%s: tail branch %d (pc %#x) after RunBatch: Predict=%v, twin Predict=%v",
				name, i, r.PC, got, want)
		}
	}
}

func TestGskewBatchLockstep(t *testing.T) {
	for _, bankBits := range []int{2, 8, 16} {
		for _, partial := range []bool{false, true} {
			batchLockstep(t, func() predictor.Predictor { return NewGskew(bankBits, bankBits, partial) })
		}
	}
}

// TestAgreeBatchLockstep runs a bias table large enough that most static
// branches latch their own bias bit on first encounter, and a small one
// where later branches find an entry an alias already latched. The
// kernel must latch both directions over the workload, so its
// first-encounter path is exercised with either outcome.
func TestAgreeBatchLockstep(t *testing.T) {
	recs := lockstepWorkload(t)
	for _, biasBits := range []int{4, 12} {
		batchLockstep(t, func() predictor.Predictor { return NewAgree(10, 8, biasBits) })
		a := NewAgree(10, 8, biasBits)
		a.RunBatch(recs)
		latched := map[uint8]int{}
		for _, b := range a.bias {
			latched[b]++
		}
		if latched[1] == 0 || latched[2] == 0 {
			t.Fatalf("b=%d: RunBatch latched %d not-taken and %d taken biases; want both",
				biasBits, latched[1], latched[2])
		}
	}
}

func TestFilterBatchLockstep(t *testing.T) {
	for _, fmax := range []uint8{1, 2, 32} {
		batchLockstep(t, func() predictor.Predictor { return NewFilter(10, 8, 6, fmax) })
	}
}

// TestYAGSBatchLockstep covers one and sixteen tag bits, no global history
// and as much as the cache index takes, and choice tables both larger
// and smaller than the caches.
func TestYAGSBatchLockstep(t *testing.T) {
	for _, g := range [][4]int{
		{11, 10, 10, 1}, {11, 10, 0, 16}, {8, 10, 10, 16}, {12, 8, 0, 1}, {9, 0, 0, 6},
	} {
		batchLockstep(t, func() predictor.Predictor { return NewYAGS(g[0], g[1], g[2], g[3]) })
	}
}

// predictUpdateOnly hides every method of a predictor but those of
// predictor.Predictor: a component without a kernel.
type predictUpdateOnly struct{ predictor.Predictor }

// noKernelYAGS is YAGS behind predictUpdateOnly.
func noKernelYAGS() predictor.Predictor { return predictUpdateOnly{NewYAGS(8, 8, 8, 6)} }

// TestTournamentBatchLockstep covers the kernel (the 21264-style
// per-address + global pairing) and the per-record fallback of every
// other pairing, with a component without a kernel (YAGS behind
// predictUpdateOnly) in either slot.
func TestTournamentBatchLockstep(t *testing.T) {
	if _, ok := noKernelYAGS().(predictor.BatchRunner); ok {
		t.Fatal("the component without a kernel has a RunBatch")
	}
	builds := []struct {
		name string
		mk   func() predictor.Predictor
	}{
		{"alpha", func() predictor.Predictor { return NewAlpha21264Style(10) }},
		{"yags|gshare", func() predictor.Predictor { return NewTournament(9, noKernelYAGS(), NewGshare(10, 8)) }},
		{"gskew|yags", func() predictor.Predictor { return NewTournament(9, NewGskew(8, 8, true), noKernelYAGS()) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) { batchLockstep(t, b.mk) })
	}
}
