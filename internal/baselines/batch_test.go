package baselines

import (
	"math/rand/v2"
	"testing"

	"bimode/internal/predictor"
)

// Chunked lockstep tests for the de-aliasing rivals' RunBatch kernels:
// RunBatch over random-length chunks must count, chunk for chunk, the
// mispredicts a twin driven by Step makes, and must leave behind the
// state the twin has. The second half is checked by stepping both over
// a tail: a kernel that fails to write back its history register, a
// history table or a counter table predicts that tail differently.

// batchLockstep runs one instance from mk through RunBatch over
// random-length chunks (zero-length ones included) of the first 80% of
// stepWorkload and a twin through Step, then steps both over the rest,
// comparing every prediction.
func batchLockstep(t *testing.T, mk func() predictor.Predictor) {
	t.Helper()
	all := stepWorkload(t)
	recs, tail := all[:len(all)*4/5], all[len(all)*4/5:]
	batch, ok := mk().(predictor.BatchRunner)
	if !ok {
		t.Fatalf("%s is not a BatchRunner", mk().Name())
	}
	twin := mk().(predictor.Stepper)
	name := mk().Name()
	rng := rand.New(rand.NewPCG(uint64(len(name)), 7))
	for pos := 0; pos < len(recs); {
		chunk := recs[pos : pos+min(rng.IntN(1024), len(recs)-pos)]
		want := 0
		for _, r := range chunk {
			if twin.Step(r.PC, r.Taken) != r.Taken {
				want++
			}
		}
		if got := batch.RunBatch(chunk); got != want {
			t.Fatalf("%s: chunk at %d (%d records): RunBatch=%d mispredicts, Step=%d",
				name, pos, len(chunk), got, want)
		}
		pos += len(chunk)
	}
	step := batch.(predictor.Stepper)
	for i, r := range tail {
		if got, want := step.Step(r.PC, r.Taken), twin.Step(r.PC, r.Taken); got != want {
			t.Fatalf("%s: tail branch %d (pc %#x) after RunBatch: Step=%v, twin Step=%v",
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

func TestAgreeBatchLockstep(t *testing.T) {
	for _, biasBits := range []int{4, 12} {
		batchLockstep(t, func() predictor.Predictor { return NewAgree(10, 8, biasBits) })
	}
}

func TestFilterBatchLockstep(t *testing.T) {
	for _, fmax := range []uint8{1, 2, 32} {
		batchLockstep(t, func() predictor.Predictor { return NewFilter(10, 8, 6, fmax) })
	}
}

// TestTournamentBatchLockstep covers the kernel (the 21264-style
// per-address + global pairing) and the Step-per-record fallback of
// every other pairing.
func TestTournamentBatchLockstep(t *testing.T) {
	builds := []struct {
		name string
		mk   func() predictor.Predictor
	}{
		{"alpha", func() predictor.Predictor { return NewAlpha21264Style(10) }},
		{"yags|gshare", func() predictor.Predictor { return NewTournament(9, NewYAGS(8, 8, 8, 6), NewGshare(10, 8)) }},
		{"gskew|yags", func() predictor.Predictor { return NewTournament(9, NewGskew(8, 8, true), NewYAGS(8, 8, 8, 6)) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) { batchLockstep(t, b.mk) })
	}
}
