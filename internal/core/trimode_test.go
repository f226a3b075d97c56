package core

import (
	"testing"

	"bimode/internal/predictor"
)

var (
	_ predictor.Predictor = (*TriMode)(nil)
	_ predictor.Probe     = (*TriMode)(nil)
)

func TestTriModeValidation(t *testing.T) {
	if _, err := NewTriMode(Config{BankBits: -1}); err == nil {
		t.Fatalf("invalid config must fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("MustNewTriMode must panic on invalid config")
			}
		}()
		MustNewTriMode(Config{BankBits: -1})
	}()
}

func TestTriModeClassification(t *testing.T) {
	tm := MustNewTriMode(Config{ChoiceBits: 8, BankBits: 6, HistoryBits: 0})
	pc := uint64(0x100)
	// Fresh choice value 5 classifies as WB.
	if got := tm.classify(5); got != bankWeak {
		t.Fatalf("value 5 should classify WB, got bank %d", got)
	}
	// Strongly taken branch drives the confidence counter to the top:
	// classification moves to the taken bank.
	for i := 0; i < 10; i++ {
		tm.Update(pc, true)
	}
	if id := tm.ProbeLookup(pc).CounterID; id < BankTaken<<6 || id >= (BankTaken+1)<<6 {
		t.Fatalf("taken-biased branch should live in the taken bank, id=%d", id)
	}
	if !tm.Predict(pc) {
		t.Fatalf("taken-biased branch must predict taken")
	}
	// Retrain strongly not-taken: classification flips to the NT bank.
	for i := 0; i < 16; i++ {
		tm.Update(pc, false)
	}
	if id := tm.ProbeLookup(pc).CounterID; id >= 1<<6 {
		t.Fatalf("not-taken-biased branch should live in the NT bank, id=%d", id)
	}
}

func TestTriModeWBIsolation(t *testing.T) {
	// An alternating (weakly biased) branch must stay in the WB bank and
	// never touch the strong banks' counters.
	tm := MustNewTriMode(Config{ChoiceBits: 8, BankBits: 6, HistoryBits: 0})
	pc := uint64(0x140)
	ntBefore := tm.dirStateAt(BankNotTaken, tm.dirIndex(pc))
	tBefore := tm.dirStateAt(BankTaken, tm.dirIndex(pc))
	for i := 0; i < 200; i++ {
		tm.Update(pc, i%2 == 0)
	}
	if tm.classify(tm.choiceStateAt(tm.choiceIndex(pc))) != bankWeak {
		t.Fatalf("alternating branch should classify WB")
	}
	if tm.dirStateAt(BankNotTaken, tm.dirIndex(pc)) != ntBefore ||
		tm.dirStateAt(BankTaken, tm.dirIndex(pc)) != tBefore {
		t.Fatalf("WB branch must not train the strong banks")
	}
}

func TestTriModeLearnsWBPatternWithHistory(t *testing.T) {
	tm := MustNewTriMode(Config{ChoiceBits: 8, BankBits: 8, HistoryBits: 8})
	pc := uint64(0x180)
	last := false
	for i := 0; i < 300; i++ {
		last = !last
		tm.Predict(pc)
		tm.Update(pc, last)
	}
	miss := 0
	for i := 0; i < 100; i++ {
		last = !last
		if tm.Predict(pc) != last {
			miss++
		}
		tm.Update(pc, last)
	}
	if miss > 2 {
		t.Fatalf("tri-mode's WB bank must learn an alternating pattern via history, missed %d", miss)
	}
}

func TestTriModeCostAndCounters(t *testing.T) {
	tm := MustNewTriMode(Config{ChoiceBits: 7, BankBits: 7, HistoryBits: 7})
	want := 128*3 + 3*128*2
	if tm.CostBits() != want {
		t.Fatalf("cost = %d, want %d", tm.CostBits(), want)
	}
	if tm.NumCounters() != 3*128 {
		t.Fatalf("NumCounters = %d", tm.NumCounters())
	}
	if tm.Name() != "tri-mode(7c,7b,7h)" {
		t.Fatalf("name = %q", tm.Name())
	}
}

func TestTriModeReset(t *testing.T) {
	tm := MustNewTriMode(DefaultConfig(6))
	pc := uint64(0x1C0)
	for i := 0; i < 50; i++ {
		tm.Update(pc, false)
	}
	tm.Reset()
	if !tm.Predict(pc) {
		t.Fatalf("reset tri-mode must return to the initial WB/taken prediction")
	}
	if tm.classify(tm.choiceStateAt(tm.choiceIndex(pc))) != bankWeak {
		t.Fatalf("reset choice counters must classify WB")
	}
}
