package baselines

import "testing"

func TestFilterClassifiesBiasedBranch(t *testing.T) {
	f := NewFilter(8, 8, 8, 8)
	pc := uint64(0x100)
	for i := 0; i < 10; i++ {
		f.Predict(pc)
		f.Update(pc, true)
	}
	if !f.filtered(pc) {
		t.Fatalf("a long same-direction run must trip the filter")
	}
	if !f.Predict(pc) {
		t.Fatalf("filtered branch must predict its run direction")
	}
	// A direction change un-filters the branch.
	f.Update(pc, false)
	if f.filtered(pc) {
		t.Fatalf("direction change must reset the filter")
	}
}

func TestFilterKeepsPHTCleanOfBiasedBranches(t *testing.T) {
	// Two branches that collide in the PHT: a strongly taken one and an
	// alternating one. Once the biased branch is filtered, it stops
	// touching the PHT, so the alternating branch's patterns stay intact.
	filt := NewFilter(4, 4, 8, 4)
	gs := NewGshare(4, 4)
	biased := uint64(0x0)
	hard := uint64(0x4)
	missF, missG := 0, 0
	last := false
	for i := 0; i < 800; i++ {
		// Warm-up window excluded from scoring.
		score := i >= 200
		if filt.Predict(biased) != true && score {
			missF++
		}
		filt.Update(biased, true)
		if gs.Predict(biased) != true && score {
			missG++
		}
		gs.Update(biased, true)

		last = !last
		if filt.Predict(hard) != last && score {
			missF++
		}
		filt.Update(hard, last)
		if gs.Predict(hard) != last && score {
			missG++
		}
		gs.Update(hard, last)
	}
	if missF > missG {
		t.Fatalf("filtering should not lose to plain gshare here: filter=%d gshare=%d", missF, missG)
	}
}

func TestFilterCostAndName(t *testing.T) {
	f := NewFilter(10, 10, 8, 32)
	want := 2*1024 + 256*5
	if f.CostBits() != want {
		t.Fatalf("cost = %d, want %d", f.CostBits(), want)
	}
	if f.Name() != "filter(10i,10h,8f,max32)" {
		t.Fatalf("name = %q", f.Name())
	}
}

func TestFilterReset(t *testing.T) {
	f := NewFilter(6, 6, 6, 4)
	pc := uint64(0x40)
	for i := 0; i < 10; i++ {
		f.Update(pc, false)
	}
	f.Reset()
	if f.filtered(pc) {
		t.Fatalf("reset must clear the filter state")
	}
	if !f.Predict(pc) {
		t.Fatalf("reset must restore the weakly-taken PHT")
	}
}

func TestFilterPanics(t *testing.T) {
	cases := []func(){
		func() { NewFilter(-1, 0, 4, 4) },
		func() { NewFilter(8, 9, 4, 4) },
		func() { NewFilter(8, 8, 30, 4) },
		func() { NewFilter(8, 8, 4, 0) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d must panic", i)
				}
			}()
			c()
		}()
	}
}
