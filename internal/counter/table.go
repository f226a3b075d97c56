package counter

import "fmt"

// Table is a table of saturating counters, one per entry, stored unpacked
// (one byte per counter) for simulation speed. Its CostBits method reports
// the packed hardware cost, which is what the paper's size axis measures.
type Table struct {
	entries []State
	bits    int
	max     State
	mid     State // values above mid predict taken
	init    State
}

// NewTable returns a table of n counters of the given width, all
// initialized to init (clamped). n must be positive.
func NewTable(n int, bits int, init State) *Table {
	if n <= 0 {
		panic(fmt.Sprintf("counter: table size %d must be positive", n))
	}
	c := New(bits, init) // validates bits, clamps init
	t := &Table{
		entries: make([]State, n),
		bits:    bits,
		max:     c.Max(),
		mid:     c.Max() / 2,
		init:    c.Value(),
	}
	t.Reset()
	return t
}

// NewTwoBit returns a table of n two-bit counters initialized to init.
// This is the configuration used by every predictor in the paper.
func NewTwoBit(n int, init State) *Table { return NewTable(n, 2, init) }

// Len returns the number of counters in the table.
//
//bimode:hotpath
func (t *Table) Len() int { return len(t.entries) }

// Raw exposes the backing counter array for fused simulation loops that
// cannot afford a method call per access. Callers own the update
// discipline: every write must keep entries within [0, 2^Bits-1], exactly
// as Update would — in practice by storing only values produced by
// SatNext. Reads see live state; the slice aliases the table.
//
//bimode:hotpath
func (t *Table) Raw() []State { return t.entries }

// Bits returns the width of each counter.
func (t *Table) Bits() int { return t.bits }

// CostBits returns the hardware storage cost of the table in bits.
func (t *Table) CostBits() int { return len(t.entries) * t.bits }

// tableBoundsErr is what the table accessors panic with on an
// out-of-range index. It is a zero-size pre-constructed error so the
// guard branch cannot allocate: the explicit guard is what lets the
// compiler's prove pass drop the implicit bounds check from the hotpath
// accessors (see lint/hotpath_ledger.json), and a plain panic("...")
// would reintroduce a heap allocation for the interface conversion.
type tableBoundsErr struct{}

func (tableBoundsErr) Error() string { return "counter: table index out of range" }

var errTableBounds error = tableBoundsErr{}

// Taken reports the prediction of counter i.
//
//bimode:hotpath
func (t *Table) Taken(i int) bool {
	entries := t.entries
	if uint(i) >= uint(len(entries)) {
		panic(errTableBounds)
	}
	return entries[uint(i)] > t.mid
}

// Value returns the raw state of counter i.
//
//bimode:hotpath
func (t *Table) Value(i int) State {
	entries := t.entries
	if uint(i) >= uint(len(entries)) {
		panic(errTableBounds)
	}
	return entries[uint(i)]
}

// Set forces counter i to the given state (clamped to the counter range).
func (t *Table) Set(i int, v State) {
	if v > t.max {
		v = t.max
	}
	t.entries[i] = v
}

// Update moves counter i toward the branch outcome, saturating.
//
//bimode:hotpath
func (t *Table) Update(i int, taken bool) { t.Step(i, taken) }

// Step reports the prediction of counter i and then moves the counter
// toward the branch outcome, saturating: Taken(i) followed by Update(i,
// taken), reading the counter once. Update is Step with the prediction
// dropped.
//
//bimode:hotpath
func (t *Table) Step(i int, taken bool) bool {
	entries := t.entries
	if uint(i) >= uint(len(entries)) {
		panic(errTableBounds)
	}
	v := entries[uint(i)]
	if taken {
		if v < t.max {
			entries[uint(i)] = v + 1
		}
	} else if v > 0 {
		entries[uint(i)] = v - 1
	}
	return v > t.mid
}

// Reset restores every counter to the table's initialization value. It
// sets the first entry and doubles the initialized prefix with copy, so a
// fresh table costs a few memmoves instead of a store per counter.
func (t *Table) Reset() {
	e := t.entries
	e[0] = t.init
	for n := 1; n < len(e); n *= 2 {
		copy(e[n:], e[:n])
	}
}
