package baselines

import (
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Branch-by-branch lockstep tests for the de-aliasing rivals' kernels at
// geometries the zoo's one-spec-per-family oracles do not reach: a
// kernel run over one record at a time must predict, branch for branch,
// what its twin's Predict returns before the twin's Update. The chunked
// tests in batch_test.go compare mispredict counts per chunk; these pin
// down each single prediction.

// stepOne runs r alone through p's RunBatch and returns the prediction
// the kernel made for it.
func stepOne(p predictor.BatchRunner, r trace.Record) bool {
	return (p.RunBatch([]trace.Record{r}) == 0) == r.Taken
}

// lockstep drives step one record at a time through RunBatch and twin
// through Predict+Update over recs, failing at the first differing
// prediction.
func lockstep(t *testing.T, step, twin predictor.Predictor, recs []trace.Record) {
	t.Helper()
	runner, ok := step.(predictor.BatchRunner)
	if !ok {
		t.Fatalf("%s is not a BatchRunner", step.Name())
	}
	for i, r := range recs {
		want := predictUpdate(twin, r)
		if got := stepOne(runner, r); got != want {
			t.Fatalf("%s: branch %d (pc %#x): RunBatch=%v, Predict+Update=%v",
				twin.Name(), i, r.PC, got, want)
		}
	}
}

func TestGskewStepLockstep(t *testing.T) {
	recs := lockstepWorkload(t)
	for _, bankBits := range []int{6, 11} {
		for _, partial := range []bool{false, true} {
			lockstep(t, NewGskew(bankBits, bankBits, partial), NewGskew(bankBits, bankBits, partial), recs)
		}
	}
}

// TestTournamentStepLockstep pairs a component without a kernel (YAGS
// behind predictUpdateOnly, run through its Predict+Update) with one that
// has one, in both slots, and checks the 21264-style pairing of two
// kernels.
func TestTournamentStepLockstep(t *testing.T) {
	if _, ok := noKernelYAGS().(predictor.BatchRunner); ok {
		t.Fatal("the component without a kernel has a RunBatch")
	}
	recs := lockstepWorkload(t)
	builds := []struct {
		name string
		mk   func() *Tournament
	}{
		{"yags|gshare", func() *Tournament { return NewTournament(9, noKernelYAGS(), NewGshare(10, 8)) }},
		{"gskew|yags", func() *Tournament { return NewTournament(9, NewGskew(8, 8, true), noKernelYAGS()) }},
		{"alpha", func() *Tournament { return NewAlpha21264Style(10) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) { lockstep(t, b.mk(), b.mk(), recs) })
	}
}

// TestYAGSStepLockstep drives the YAGS kernel one record at a time
// beside a Predict+Update twin, with global history shorter than the
// cache index and as long as it, and with tags narrow enough that
// aliases hit each other's entries.
func TestYAGSStepLockstep(t *testing.T) {
	recs := lockstepWorkload(t)
	for _, g := range [][4]int{{10, 8, 8, 6}, {6, 9, 0, 2}, {8, 6, 6, 16}} {
		lockstep(t, NewYAGS(g[0], g[1], g[2], g[3]), NewYAGS(g[0], g[1], g[2], g[3]), recs)
	}
}

func TestFilterStepLockstep(t *testing.T) {
	recs := lockstepWorkload(t)
	for _, fmax := range []uint8{2, 32} {
		lockstep(t, NewFilter(10, 8, 6, fmax), NewFilter(10, 8, 6, fmax), recs)
	}
}

// TestAgreeStepLockstep runs a bias table large enough that most static
// branches latch their own bias bit on first encounter, and a small one
// where later branches find an entry an alias already latched. Both
// latched directions must occur, so the kernel's first-encounter path is
// exercised with either outcome.
func TestAgreeStepLockstep(t *testing.T) {
	recs := lockstepWorkload(t)
	for _, biasBits := range []int{12, 4} {
		step, twin := NewAgree(10, 8, biasBits), NewAgree(10, 8, biasBits)
		latched := map[uint8]int{}
		for i, r := range recs {
			bi := step.biasIdx(r.PC)
			fresh := step.bias[bi] == 0
			want := predictUpdate(twin, r)
			if got := stepOne(step, r); got != want {
				t.Fatalf("b=%d: branch %d (pc %#x, first encounter %v): RunBatch=%v, Predict+Update=%v",
					biasBits, i, r.PC, fresh, got, want)
			}
			if fresh {
				latched[step.bias[bi]]++
			}
		}
		if latched[1] == 0 || latched[2] == 0 {
			t.Fatalf("b=%d: first encounters latched %d not-taken and %d taken biases; want both",
				biasBits, latched[1], latched[2])
		}
	}
}
