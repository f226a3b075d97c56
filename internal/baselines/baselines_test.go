package baselines

import (
	"testing"

	"bimode/internal/predictor"
)

// train feeds a repeating outcome sequence for one PC and returns the
// final prediction.
func train(p predictor.Predictor, pc uint64, outcomes []bool, reps int) bool {
	for r := 0; r < reps; r++ {
		for _, o := range outcomes {
			p.Predict(pc)
			p.Update(pc, o)
		}
	}
	return p.Predict(pc)
}

func TestStaticPredictors(t *testing.T) {
	if !NewStatic(AlwaysTaken).Predict(0x100) {
		t.Fatalf("static-taken must predict taken")
	}
	if NewStatic(AlwaysNotTaken).Predict(0x100) {
		t.Fatalf("static-not-taken must predict not taken")
	}
	btfn := NewStatic(BTFN)
	if !btfn.Predict(0x100 | BackwardBit) {
		t.Fatalf("BTFN must predict backward branches taken")
	}
	if btfn.Predict(0x100) {
		t.Fatalf("BTFN must predict forward branches not taken")
	}
	for _, p := range []predictor.Predictor{NewStatic(AlwaysTaken), NewStatic(BTFN)} {
		if p.CostBits() != 0 {
			t.Fatalf("%s must cost 0 bits", p.Name())
		}
		p.Update(0x100, true) // must not panic
		p.Reset()
	}
}

func TestStaticUnknownPolicyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("unknown policy must panic")
		}
	}()
	NewStatic("coin-flip")
}

func TestSmithLearnsBias(t *testing.T) {
	s := NewSmith(6)
	if got := train(s, 0x400, []bool{false}, 4); got {
		t.Fatalf("smith must learn a not-taken branch")
	}
	if got := train(s, 0x404, []bool{true}, 4); !got {
		t.Fatalf("smith must learn a taken branch")
	}
}

func TestSmithAliasing(t *testing.T) {
	s := NewSmith(2) // 4 entries: PCs 16 bytes apart alias
	a, b := uint64(0x100), uint64(0x100+4*4)
	train(s, a, []bool{true}, 4)
	if !s.Predict(b) {
		t.Fatalf("aliased PCs must share a counter")
	}
}

func TestSmithCostAndIndexed(t *testing.T) {
	s := NewSmith(10)
	if s.CostBits() != 2*1024 {
		t.Fatalf("cost = %d, want 2048", s.CostBits())
	}
	if s.NumCounters() != 1024 {
		t.Fatalf("NumCounters = %d", s.NumCounters())
	}
	id := s.ProbeLookup(0xABC).CounterID
	if id < 0 || id >= 1024 {
		t.Fatalf("counter id out of range: %d", id)
	}
}

// TestTwoLevelProbeLookup: a two-level predictor, global or
// per-address, reports the counter its index selects as the history
// trains, with no bank and no choice vote.
func TestTwoLevelProbeLookup(t *testing.T) {
	for _, tl := range []*TwoLevel{NewGAs(8, 2), NewPAs(6, 6, 2)} {
		for i, pc := range []uint64{0x40, 0x1234, 0x40, 0x88, 0x40} {
			look := tl.ProbeLookup(pc)
			if look.CounterID != tl.index(pc) || look.Bank != -1 || look.HasChoice || look.ChoiceTaken {
				t.Fatalf("%s, record %d: lookup %+v, want counter %d, bank -1, no choice", tl.Name(), i, look, tl.index(pc))
			}
			if look.CounterID >= tl.NumCounters() {
				t.Fatalf("%s: counter %d of %d", tl.Name(), look.CounterID, tl.NumCounters())
			}
			tl.Update(pc, i%2 == 0)
		}
	}
}

// TestGshareUsesHistory: a branch alternating T/N is unpredictable for a
// two-bit counter but trivial for gshare with history.
func TestGshareUsesHistory(t *testing.T) {
	g := NewGshare(8, 8)
	pc := uint64(0x200)
	// Train on alternating outcomes.
	last := false
	for i := 0; i < 200; i++ {
		last = !last
		g.Predict(pc)
		g.Update(pc, last)
	}
	// Now verify predictions track the alternation.
	miss := 0
	for i := 0; i < 100; i++ {
		last = !last
		if g.Predict(pc) != last {
			miss++
		}
		g.Update(pc, last)
	}
	if miss > 0 {
		t.Fatalf("gshare must predict a learned alternating pattern, missed %d/100", miss)
	}

	s := NewSmith(8)
	last = false
	miss = 0
	for i := 0; i < 200; i++ {
		last = !last
		if i >= 100 && s.Predict(pc) != last {
			miss++
		}
		s.Update(pc, last)
	}
	if miss < 40 {
		t.Fatalf("smith should mispredict an alternating branch heavily, missed only %d/100", miss)
	}
}

// destructiveAliasPCs returns two PCs that, under the steady-state
// histories of the repeating stream [a taken, b not-taken], xor-map to
// the SAME counter of a 16-entry gshare(4,4): before a the history is
// 1010, before b it is 0101, so pca>>2 = 0 and pcb>>2 = 1010^0101 = 1111
// collide at index 10.
func destructiveAliasPCs() (a, b uint64) { return 0x0, 0xF << 2 }

func TestGshareDestructiveAliasing(t *testing.T) {
	g := NewGshare(4, 4)
	a, b := destructiveAliasPCs()
	miss := 0
	for i := 0; i < 400; i++ {
		if g.Predict(a) != true {
			miss++
		}
		g.Update(a, true)
		if g.Predict(b) != false {
			miss++
		}
		g.Update(b, false)
	}
	if miss < 200 {
		t.Fatalf("opposite-bias aliases on one counter should thrash gshare, missed only %d/800", miss)
	}
}

func TestGshareParams(t *testing.T) {
	g := NewGshare(12, 8)
	if g.HistoryBits() != 8 || g.IndexBits() != 12 {
		t.Fatalf("params echo wrong")
	}
	if g.Name() != "gshare(12i,8h)" {
		t.Fatalf("name = %q", g.Name())
	}
	if NewGshare(12, 12).Name() != "gshare.1PHT(12)" {
		t.Fatalf("single-PHT name wrong")
	}
	if g.CostBits() != 2*4096 {
		t.Fatalf("cost = %d", g.CostBits())
	}
}

func TestGsharePanics(t *testing.T) {
	for _, c := range [][2]int{{-1, 0}, {29, 0}, {8, 9}, {8, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewGshare(%d,%d) must panic", c[0], c[1])
				}
			}()
			NewGshare(c[0], c[1])
		}()
	}
}

func TestGshareReset(t *testing.T) {
	g := NewGshare(6, 6)
	pc := uint64(0x300)
	train(g, pc, []bool{false}, 10)
	g.Reset()
	if !g.Predict(pc) {
		t.Fatalf("reset must restore weakly-taken initialization")
	}
}

// TestGselect checks McFarling's gselect, which the zoo builds as GAs
// with set bits = address bits.
func TestGselect(t *testing.T) {
	g := NewGAs(4, 4)
	if g.CostBits() != 2*256 {
		t.Fatalf("cost = %d, want 512", g.CostBits())
	}
	pc := uint64(0x440)
	last := false
	for i := 0; i < 200; i++ {
		last = !last
		g.Predict(pc)
		g.Update(pc, last)
	}
	miss := 0
	for i := 0; i < 100; i++ {
		last = !last
		if g.Predict(pc) != last {
			miss++
		}
		g.Update(pc, last)
	}
	if miss > 0 {
		t.Fatalf("gselect must learn alternation, missed %d", miss)
	}
	if g.NumCounters() != 256 {
		t.Fatalf("NumCounters = %d", g.NumCounters())
	}
}

func TestTwoLevelVariants(t *testing.T) {
	pc := uint64(0x800)
	for _, tl := range []*TwoLevel{NewGAg(6), NewGAs(4, 2), NewPAg(6, 6), NewPAs(4, 4, 2)} {
		last := false
		for i := 0; i < 300; i++ {
			last = !last
			tl.Predict(pc)
			tl.Update(pc, last)
		}
		miss := 0
		for i := 0; i < 100; i++ {
			last = !last
			if tl.Predict(pc) != last {
				miss++
			}
			tl.Update(pc, last)
		}
		if miss > 0 {
			t.Errorf("%s must learn a single branch's alternation, missed %d", tl.Name(), miss)
		}
		tl.Reset()
		if !tl.Predict(pc) {
			t.Errorf("%s reset must restore weakly-taken", tl.Name())
		}
	}
}

func TestTwoLevelNamesAndCost(t *testing.T) {
	if NewGAg(10).Name() != "GAg(10h)" {
		t.Fatalf("GAg name wrong: %s", NewGAg(10).Name())
	}
	if NewGAs(8, 2).Name() != "GAs(8h,2s)" {
		t.Fatalf("GAs name wrong")
	}
	if NewGAs(8, 2).CostBits() != 2*1024 {
		t.Fatalf("GAs cost wrong: %d", NewGAs(8, 2).CostBits())
	}
	// PAg separates per-address histories: two alternating branches in
	// antiphase confuse GAg but not PAg.
	pag := NewPAg(8, 6)
	gag := NewGAg(6)
	a, b := uint64(0x100), uint64(0x104)
	missPAg, missGAg := 0, 0
	la, lb := false, true
	for i := 0; i < 400; i++ {
		la, lb = !la, !lb
		for _, p := range []predictor.Predictor{pag, gag} {
			m := 0
			if p.Predict(a) != la {
				m++
			}
			p.Update(a, la)
			if p.Predict(b) != lb {
				m++
			}
			p.Update(b, lb)
			if i >= 200 {
				if p == predictor.Predictor(pag) {
					missPAg += m
				} else {
					missGAg += m
				}
			}
		}
	}
	if missPAg > 0 {
		t.Fatalf("PAg must track antiphase alternating branches, missed %d", missPAg)
	}
	_ = missGAg // GAg can also learn this via patterns; no assertion
}
