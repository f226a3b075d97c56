package counter

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTableBasics(t *testing.T) {
	tb := NewTwoBit(8, WeakTaken)
	if tb.Len() != 8 || tb.Bits() != 2 || tb.CostBits() != 16 {
		t.Fatalf("len/bits/cost = %d/%d/%d, want 8/2/16", tb.Len(), tb.Bits(), tb.CostBits())
	}
	if !tb.Taken(3) {
		t.Fatalf("weak taken init must predict taken")
	}
	tb.Update(3, false)
	tb.Update(3, false)
	if tb.Taken(3) {
		t.Fatalf("two not-taken updates must flip the prediction")
	}
	if !tb.Taken(4) || tb.Value(4) != WeakTaken {
		t.Fatalf("update must not touch other entries: entry 4 = %d", tb.Value(4))
	}
}

func TestTableSetClamps(t *testing.T) {
	tb := NewTwoBit(4, 0)
	tb.Set(2, 9)
	if tb.Value(2) != 3 {
		t.Fatalf("Set must clamp to counter max, got %d", tb.Value(2))
	}
}

func TestTableReset(t *testing.T) {
	tb := NewTwoBit(4, WeakNotTaken)
	for i := 0; i < 4; i++ {
		tb.Update(i, true)
		tb.Update(i, true)
	}
	tb.Reset()
	for i := 0; i < 4; i++ {
		if tb.Value(i) != WeakNotTaken {
			t.Fatalf("entry %d not reset: %d", i, tb.Value(i))
		}
	}
}

// TestTableResetAfterRandomUpdates checks the doubling Reset at sizes
// around the power-of-two boundaries its copies step through: every
// entry must be back at init, whatever the updates left there.
func TestTableResetAfterRandomUpdates(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 7, 8, 9, 255, 256, 257, 4095, 4096, 4097} {
		for _, bits := range []int{1, 2, 3} {
			init := State(rng.Intn(1 << bits))
			tb := NewTable(n, bits, init)
			for k := 0; k < 4*n; k++ {
				tb.Update(rng.Intn(n), rng.Intn(2) == 1)
			}
			tb.Reset()
			for i := 0; i < n; i++ {
				if tb.Value(i) != init {
					t.Fatalf("n=%d bits=%d: entry %d = %d after Reset, want %d", n, bits, i, tb.Value(i), init)
				}
			}
		}
	}
}

// TestTableStepMatchesCounters drives a table through Step and one
// Counter per entry through Taken+Update in lockstep at every counter
// width, comparing each prediction and the final table contents.
func TestTableStepMatchesCounters(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for bits := 1; bits <= 4; bits++ {
		tb := NewTable(16, bits, 0)
		twins := make([]Counter, 16)
		for i := range twins {
			twins[i] = New(bits, 0)
		}
		for k := 0; k < 5000; k++ {
			i, taken := rng.Intn(16), rng.Intn(3) != 0
			want := twins[i].Taken()
			twins[i].Update(taken)
			if got := tb.Step(i, taken); got != want {
				t.Fatalf("bits=%d step %d: Step=%v, Counter.Taken=%v", bits, k, got, want)
			}
		}
		for i, c := range twins {
			if tb.Value(i) != c.Value() {
				t.Fatalf("bits=%d: entry %d = %d, counter %d", bits, i, tb.Value(i), c.Value())
			}
		}
	}
}

func TestTablePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("NewTable(0,...) must panic")
		}
	}()
	NewTable(0, 2, 0)
}

func TestPackedTableCost(t *testing.T) {
	pt := NewPackedTwoBit(1024, WeakTaken)
	if pt.CostBits() != 2048 || pt.CostBytes() != 256 {
		t.Fatalf("cost = %d bits / %d bytes, want 2048/256", pt.CostBits(), pt.CostBytes())
	}
}

func TestPackedTableBoundsPanic(t *testing.T) {
	pt := NewPackedTwoBit(8, 0)
	for _, i := range []int{-1, 8} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Value(%d) must panic", i)
				}
			}()
			pt.Value(i)
		}()
	}
}

// TestPackedMatchesUnpacked is the central property: the bit-packed
// hardware layout and the fast unpacked table are behaviorally identical
// under any interleaving of updates.
func TestPackedMatchesUnpacked(t *testing.T) {
	type op struct {
		Idx   uint8
		Taken bool
	}
	f := func(init uint8, ops []op) bool {
		const n = 32
		a := NewTwoBit(n, State(init%4))
		b := NewPackedTwoBit(n, State(init%4))
		for _, o := range ops {
			i := int(o.Idx) % n
			a.Update(i, o.Taken)
			b.Update(i, o.Taken)
		}
		for i := 0; i < n; i++ {
			if a.Value(i) != b.Value(i) || a.Taken(i) != b.Taken(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPackedReset(t *testing.T) {
	pt := NewPackedTwoBit(9, WeakTaken) // odd size exercises partial last byte
	for i := 0; i < 9; i++ {
		pt.Set(i, State(i%4))
	}
	pt.Reset()
	for i := 0; i < 9; i++ {
		if pt.Value(i) != WeakTaken {
			t.Fatalf("entry %d not reset: %d", i, pt.Value(i))
		}
	}
}
