// Package counter implements the saturating up-down counters and counter
// tables that form the state of every predictor in this repository.
//
// The paper measures predictor cost purely as the number of bytes occupied
// by two-bit counters, so the tables here carry an explicit cost in bits.
// Two table implementations are provided: Table stores one counter per
// byte for speed, and PackedTable stores counters bit-packed exactly as
// hardware would; the two are behaviorally identical (see the package
// tests), so the simulators use Table and the cost model uses the packed
// size.
//
// Counter state is the defined type State rather than a bare uint8, and
// every mutation outside this package must go through the Table/Counter
// methods or the branch-free transition helpers (SatNext, TakenBit): the
// counterarith analyzer in internal/lint rejects raw arithmetic,
// comparisons, and conversions on State elsewhere. Bits is the single
// sanctioned escape hatch for code that genuinely needs the raw pattern.
package counter

import "fmt"

// State is the raw stored value of one saturating counter. It is a
// defined type (not an alias) so the counterarith analyzer can flag raw
// arithmetic on counter state outside this package; predictors hold and
// move State values only through this package's API.
type State uint8

// Common two-bit counter states, named for readability at call sites.
const (
	StrongNotTaken State = 0
	WeakNotTaken   State = 1
	WeakTaken      State = 2
	StrongTaken    State = 3
)

// TakenBit returns the prediction bit of a two-bit counter state: 1 when
// the state is in the taken half (weakly or strongly taken). Fused
// simulation loops use it so the prediction is a shift, not a branch.
//
//bimode:hotpath
func (s State) TakenBit() uint8 { return uint8(s) >> 1 }

// Taken2 reports the prediction encoded by a two-bit counter state.
//
//bimode:hotpath
func (s State) Taken2() bool { return s >= WeakTaken }

// Bits returns the raw bit pattern of a counter state. It is the single
// sanctioned way to move counter state into plain integer arithmetic
// (e.g. building a lookup-table key from a state and outcome bits);
// direct conversions outside this package are rejected by the
// counterarith analyzer so every escape is greppable.
//
//bimode:hotpath
func Bits(s State) uint8 { return uint8(s) }

// Counter is a saturating up-down counter of configurable width.
// A Counter with Bits=2 is the classic Smith two-bit counter: states
// 0 (strongly not-taken), 1 (weakly not-taken), 2 (weakly taken),
// 3 (strongly taken).
type Counter struct {
	value State
	max   State
}

// New returns a counter with the given width in bits (1..8) initialized to
// the given value, which is clamped to the representable range.
func New(bits int, value State) Counter {
	if bits < 1 || bits > 8 {
		panic(fmt.Sprintf("counter: width %d out of range [1,8]", bits))
	}
	max := State(1<<bits - 1)
	if value > max {
		value = max
	}
	return Counter{value: value, max: max}
}

// Value returns the current counter state.
func (c Counter) Value() State { return c.value }

// Max returns the saturation value (2^bits - 1).
func (c Counter) Max() State { return c.max }

// Taken reports the prediction encoded by the counter: true when the
// counter is in the taken half of its range.
func (c Counter) Taken() bool { return c.value > c.max/2 }

// Strong reports whether the counter is at either saturation point.
func (c Counter) Strong() bool { return c.value == 0 || c.value == c.max }

// Update moves the counter toward taken or not-taken, saturating.
func (c *Counter) Update(taken bool) {
	if taken {
		if c.value < c.max {
			c.value++
		}
	} else if c.value > 0 {
		c.value--
	}
}

// SatNext2[outcome<<2|state] is the saturating two-bit counter transition
// table: state-1 clamped at 0 for a not-taken outcome (rows 0-3), state+1
// clamped at 3 for a taken outcome (rows 4-7). External callers go
// through SatNext, which encapsulates the key layout.
var SatNext2 = [8]State{0, 0, 1, 2, 1, 2, 3, 3}

// OutcomeBit converts a branch outcome to the bit SatNext consumes
// (1 = taken). The compiler lowers it to a flag materialization, not a
// branch.
//
//bimode:hotpath
func OutcomeBit(taken bool) uint8 {
	if taken {
		return 1
	}
	return 0
}

// SatNext is the saturating two-bit counter transition: the state after
// training v with the outcome bit taken (1 = taken). Fused simulation
// loops use it instead of Table.Update so the counter step is a table
// load rather than a data-dependent branch the host CPU cannot predict;
// TestSatNext2Exhaustive pins it to Counter.Update bit for bit.
//
//bimode:hotpath
func SatNext(v State, taken uint8) State {
	return SatNext2[(taken<<2|uint8(v))&7]
}

// satNextIf2[enable<<3|outcome<<2|state] is the conditional two-bit
// transition table: rows 0-7 leave the state as it is, rows 8-15 are
// SatNext2.
var satNextIf2 = [16]State{0, 1, 2, 3, 0, 1, 2, 3, 0, 0, 1, 2, 1, 2, 3, 3}

// SatNextIf is SatNext applied only when the bit en is 1: the state v
// unchanged for en == 0, SatNext(v, taken) for en == 1. Kernels whose
// counters train only sometimes (e-gskew's partial update, the filter's
// PHT, the tournament's meta counter) use it so the condition, which is
// trace data, is a table key rather than a branch;
// TestSatNextIf2Exhaustive pins it to Counter.Update.
//
//bimode:hotpath
func SatNextIf(v State, taken, en uint8) State {
	return satNextIf2[(en<<3|taken<<2|uint8(v))&15]
}
