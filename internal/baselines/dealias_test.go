package baselines

import (
	"testing"
	"testing/quick"
)

func TestAgreeConvertsDestructiveAliasing(t *testing.T) {
	// Two strongly biased branches with opposite directions that collide
	// in the PHT: agree stores "agrees with bias" so both push their
	// shared counter the same way; a plain gshare thrashes.
	agree := NewAgree(4, 4, 10)
	gs := NewGshare(4, 4)
	a, b := destructiveAliasPCs() // same PHT counter under steady-state histories
	missAgree, missGshare := 0, 0
	for i := 0; i < 500; i++ {
		if agree.Predict(a) != true {
			missAgree++
		}
		agree.Update(a, true)
		if agree.Predict(b) != false {
			missAgree++
		}
		agree.Update(b, false)

		if gs.Predict(a) != true {
			missGshare++
		}
		gs.Update(a, true)
		if gs.Predict(b) != false {
			missGshare++
		}
		gs.Update(b, false)
	}
	if missAgree*4 > missGshare {
		t.Fatalf("agree should largely remove destructive aliasing: agree=%d gshare=%d", missAgree, missGshare)
	}
}

func TestAgreeBiasLatching(t *testing.T) {
	a := NewAgree(6, 0, 6)
	pc := uint64(0x200)
	// First outcome latches the bias; with zero history the PHT counter
	// then tracks agreement.
	a.Predict(pc)
	a.Update(pc, false) // bias <- not-taken
	for i := 0; i < 4; i++ {
		a.Predict(pc)
		a.Update(pc, false)
	}
	if a.Predict(pc) {
		t.Fatalf("agree must predict the latched not-taken bias")
	}
	a.Reset()
	// After reset the bias is unlatched again; default presumption taken.
	if !a.Predict(pc) {
		t.Fatalf("reset agree should presume taken before first update")
	}
}

func TestAgreeCost(t *testing.T) {
	a := NewAgree(10, 10, 8)
	want := 2*1024 + 2*256
	if a.CostBits() != want {
		t.Fatalf("cost = %d, want %d", a.CostBits(), want)
	}
}

func TestGskewShuffleBijective(t *testing.T) {
	for _, bits := range []int{2, 5, 8, 11} {
		g := NewGskew(bits, 4, false)
		f := func(y uint64) bool {
			y &= g.bankMask
			return g.shuffleHInv(g.shuffleH(y)) == y && g.shuffleH(g.shuffleHInv(y)) == y
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
			t.Fatalf("bits=%d: %v", bits, err)
		}
	}
}

func TestGskewLearnsBias(t *testing.T) {
	for _, partial := range []bool{false, true} {
		g := NewGskew(8, 6, partial)
		pc := uint64(0x540)
		for i := 0; i < 20; i++ {
			g.Predict(pc)
			g.Update(pc, false)
		}
		if g.Predict(pc) {
			t.Fatalf("gskew(partial=%v) must learn a biased branch", partial)
		}
		g.Reset()
		if !g.Predict(pc) {
			t.Fatalf("gskew reset must restore weakly-taken majority")
		}
	}
}

func TestGskewDisperses(t *testing.T) {
	// Two PCs that collide in bank 0 should not collide in all three
	// banks; the majority vote then survives single-bank aliasing.
	g := NewGskew(6, 0, false)
	a, b := uint64(0x100), uint64(0x100+4*(1<<6))
	a0, a1, a2 := g.indices(a)
	b0, b1, b2 := g.indices(b)
	if a0 == b0 && a1 == b1 && a2 == b2 {
		t.Fatalf("skewing failed: all three banks collide for %x and %x", a, b)
	}
}

func TestGskewCostAndName(t *testing.T) {
	g := NewGskew(10, 10, true)
	if g.CostBits() != 3*2*1024 {
		t.Fatalf("cost = %d", g.CostBits())
	}
	if g.Name() != "e-gskew(3x10b,10h)" {
		t.Fatalf("name = %q", g.Name())
	}
}

func TestYAGSExceptionLearning(t *testing.T) {
	y := NewYAGS(8, 6, 6, 6)
	pc := uint64(0x700)
	// Train a mostly-taken branch: choice learns taken.
	for i := 0; i < 8; i++ {
		y.Predict(pc)
		y.Update(pc, true)
	}
	if !y.Predict(pc) {
		t.Fatalf("yags must predict the bias direction")
	}
	// Now a history-dependent exception: alternate taken/not-taken; the
	// NT cache should capture the not-taken cases.
	last := false
	for i := 0; i < 300; i++ {
		last = !last
		y.Predict(pc)
		y.Update(pc, last)
	}
	miss := 0
	for i := 0; i < 100; i++ {
		last = !last
		if y.Predict(pc) != last {
			miss++
		}
		y.Update(pc, last)
	}
	if miss > 5 {
		t.Fatalf("yags must learn alternation through its exception cache, missed %d/100", miss)
	}
}

func TestYAGSReset(t *testing.T) {
	y := NewYAGS(6, 6, 6, 6)
	pc := uint64(0x340)
	for i := 0; i < 50; i++ {
		y.Predict(pc)
		y.Update(pc, false)
	}
	y.Reset()
	if !y.Predict(pc) {
		t.Fatalf("reset yags must predict weakly-taken choice default")
	}
}

func TestYAGSCost(t *testing.T) {
	y := NewYAGS(10, 8, 8, 6)
	want := 2*1024 + 2*256*(2+6+1)
	if y.CostBits() != want {
		t.Fatalf("cost = %d, want %d", y.CostBits(), want)
	}
}
