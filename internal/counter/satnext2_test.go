package counter

import "testing"

// TestSatNext2Exhaustive checks every (state, outcome) transition of the
// SatNext2 lookup table against the scalar two-bit Counter, bit for bit.
// The fused simulation loops (core.BiMode.RunBatch, baselines) rely on
// this equivalence instead of calling Update per branch.
func TestSatNext2Exhaustive(t *testing.T) {
	for v := State(0); v <= 3; v++ {
		for _, taken := range []bool{false, true} {
			c := New(2, v)
			c.Update(taken)
			var tk uint8
			if taken {
				tk = 1
			}
			got := SatNext2[tk<<2|uint8(v)]
			if got != c.Value() {
				t.Errorf("SatNext2[%d<<2|%d] = %d, Counter.Update gives %d", tk, v, got, c.Value())
			}
			if got > 3 {
				t.Errorf("SatNext2[%d<<2|%d] = %d escapes the two-bit range", tk, v, got)
			}
		}
	}
}

// TestSatNext2MatchesTable checks the same equivalence against the Table
// implementation the predictors actually run on, for every state.
func TestSatNext2MatchesTable(t *testing.T) {
	for v := State(0); v <= 3; v++ {
		for _, taken := range []bool{false, true} {
			tab := NewTwoBit(1, v)
			tab.Update(0, taken)
			var tk uint8
			if taken {
				tk = 1
			}
			if got := SatNext2[tk<<2|uint8(v)]; got != tab.Value(0) {
				t.Errorf("SatNext2[%d<<2|%d] = %d, Table.Update gives %d", tk, v, got, tab.Value(0))
			}
		}
	}
}

// TestSatNextIf2Exhaustive checks every (state, outcome, enable) key of
// the conditional table: disabled rows keep the state, enabled rows match
// the scalar two-bit Counter and SatNext.
func TestSatNextIf2Exhaustive(t *testing.T) {
	for v := State(0); v <= 3; v++ {
		for _, taken := range []bool{false, true} {
			tk := OutcomeBit(taken)
			if got := SatNextIf(v, tk, 0); got != v {
				t.Errorf("SatNextIf(%d, %d, 0) = %d, want the state unchanged", v, tk, got)
			}
			c := New(2, v)
			c.Update(taken)
			if got := SatNextIf(v, tk, 1); got != c.Value() || got != SatNext(v, tk) {
				t.Errorf("SatNextIf(%d, %d, 1) = %d, Counter.Update gives %d", v, tk, got, c.Value())
			}
		}
	}
}
