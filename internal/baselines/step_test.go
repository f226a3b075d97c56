package baselines

import (
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/synth"
	"bimode/internal/trace"
)

// Lockstep tests for the de-aliasing rivals' fused Steps at geometries
// the zoo's one-spec-per-family oracles do not reach: each Step must
// return, branch for branch, what its twin's Predict returns before the
// twin's Update.

// stepWorkload is one suite workload, long enough to wrap every table
// below many times.
func stepWorkload(t *testing.T) []trace.Record {
	t.Helper()
	p, ok := synth.ProfileByName("gcc")
	if !ok {
		t.Fatal("suite profile gcc missing")
	}
	return trace.Materialize(synth.MustWorkload(p.WithDynamic(30000))).Records()
}

// lockstep drives step through Step and twin through Predict+Update over
// recs, failing at the first differing prediction.
func lockstep(t *testing.T, step predictor.Stepper, twin predictor.Predictor, recs []trace.Record) {
	t.Helper()
	for i, r := range recs {
		want := twin.Predict(r.PC)
		twin.Update(r.PC, r.Taken)
		if got := step.Step(r.PC, r.Taken); got != want {
			t.Fatalf("%s: branch %d (pc %#x): Step=%v, Predict+Update=%v",
				twin.Name(), i, r.PC, got, want)
		}
	}
}

func TestGskewStepLockstep(t *testing.T) {
	recs := stepWorkload(t)
	for _, bankBits := range []int{6, 11} {
		for _, partial := range []bool{false, true} {
			lockstep(t, NewGskew(bankBits, bankBits, partial), NewGskew(bankBits, bankBits, partial), recs)
		}
	}
}

// TestTournamentStepLockstep pairs a component without a fused Step
// (YAGS, stepped through its Predict+Update) with one that has one, in
// both slots, and checks the 21264-style pairing of two Steppers.
func TestTournamentStepLockstep(t *testing.T) {
	if _, ok := predictor.Predictor(NewYAGS(8, 8, 8, 6)).(predictor.Stepper); ok {
		t.Fatal("YAGS has a Step; pick another non-Stepper component")
	}
	recs := stepWorkload(t)
	builds := []struct {
		name string
		mk   func() *Tournament
	}{
		{"yags|gshare", func() *Tournament { return NewTournament(9, NewYAGS(8, 8, 8, 6), NewGshare(10, 8)) }},
		{"gskew|yags", func() *Tournament { return NewTournament(9, NewGskew(8, 8, true), NewYAGS(8, 8, 8, 6)) }},
		{"alpha", func() *Tournament { return NewAlpha21264Style(10) }},
	}
	for _, b := range builds {
		t.Run(b.name, func(t *testing.T) { lockstep(t, b.mk(), b.mk(), recs) })
	}
}

func TestFilterStepLockstep(t *testing.T) {
	recs := stepWorkload(t)
	for _, fmax := range []uint8{2, 32} {
		lockstep(t, NewFilter(10, 8, 6, fmax), NewFilter(10, 8, 6, fmax), recs)
	}
}

// TestAgreeStepLockstep runs a bias table large enough that most static
// branches latch their own bias bit on first encounter, and a small one
// where later branches find an entry an alias already latched. Both
// latched directions must occur, so the Step's first-encounter path is
// exercised with either outcome.
func TestAgreeStepLockstep(t *testing.T) {
	recs := stepWorkload(t)
	for _, biasBits := range []int{12, 4} {
		step, twin := NewAgree(10, 8, biasBits), NewAgree(10, 8, biasBits)
		latched := map[uint8]int{}
		for i, r := range recs {
			bi := step.biasIdx(r.PC)
			fresh := step.bias[bi] == 0
			want := twin.Predict(r.PC)
			twin.Update(r.PC, r.Taken)
			if got := step.Step(r.PC, r.Taken); got != want {
				t.Fatalf("b=%d: branch %d (pc %#x, first encounter %v): Step=%v, Predict+Update=%v",
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
