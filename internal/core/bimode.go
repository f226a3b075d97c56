// Package core implements the paper's contribution: the bi-mode branch
// predictor of Lee, Chen and Mudge (MICRO-30, 1997).
//
// The bi-mode predictor splits the second-level two-bit counter table of a
// global-history predictor into two direction banks. Both banks are
// indexed gshare-style (branch address XOR global history); a separate
// choice predictor, a plain PC-indexed two-bit counter table, selects
// which bank supplies the prediction. Branches the choice predictor deems
// "mostly taken" are steered to one bank and "mostly not-taken" branches
// to the other, so two branches with the same history pattern but opposite
// biases no longer destroy each other's counters: the choice predictor
// separates the destructive aliases while keeping harmless aliases
// together.
//
// Update policy (paper Section 2.2):
//   - only the *selected* direction counter is updated with the outcome;
//     the unselected bank is untouched;
//   - the choice predictor is always updated with the outcome, EXCEPT when
//     its choice disagreed with the outcome but the selected direction
//     counter still predicted correctly (the "partial update" that makes
//     small configurations work).
//
// Initialization (paper footnote 2): the choice predictor is reset to
// weakly taken, the not-taken bank to weakly not-taken, and the taken bank
// to weakly taken.
//
// Representation: the logical counter tables live in the packed
// structure-of-arrays planes described in packed.go — a pre-shifted
// choice byte plane and a direction plane holding both banks' counters
// for the same index in one byte — so the simulation loops do one probe
// per logical table walk and step every counter through a single fused
// transition LUT. The packing is invisible outside the package: all
// accessors speak counter.State and the snapshot wire format is
// byte-identical to the unpacked tables this layout replaced.
package core

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/history"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Bank identifiers for the two direction predictors.
const (
	// BankNotTaken holds branches the choice predictor classifies as
	// mostly not-taken.
	BankNotTaken = 0
	// BankTaken holds branches the choice predictor classifies as mostly
	// taken.
	BankTaken = 1
)

// Config parameterizes a bi-mode predictor. The zero value is not valid;
// use DefaultConfig or fill in the widths explicitly.
type Config struct {
	// ChoiceBits is log2 of the number of choice-predictor counters.
	ChoiceBits int
	// BankBits is log2 of the number of counters in EACH direction bank.
	BankBits int
	// HistoryBits is the global history length XOR-ed into the direction
	// index. Must not exceed BankBits.
	HistoryBits int

	// FullChoiceUpdate disables the paper's partial update policy: the
	// choice predictor is then always updated with the outcome. Ablation
	// knob; the paper's design wants false.
	FullChoiceUpdate bool
	// UpdateBothBanks trains the unselected direction bank too. Ablation
	// knob; the paper's design wants false (selective update).
	UpdateBothBanks bool
}

// DefaultConfig returns the paper's canonical shape at a given bank width:
// the choice table has as many entries as one direction bank and the
// direction index uses all available bits of history (HistoryBits ==
// BankBits), the configuration of Section 4.2.
func DefaultConfig(bankBits int) Config {
	return Config{ChoiceBits: bankBits, BankBits: bankBits, HistoryBits: bankBits}
}

func (c Config) validate() error {
	if c.ChoiceBits < 0 || c.ChoiceBits > 28 {
		return fmt.Errorf("core: choice width %d out of range [0,28]", c.ChoiceBits)
	}
	if c.BankBits < 1 || c.BankBits > 27 {
		return fmt.Errorf("core: bank width %d out of range [1,27]", c.BankBits)
	}
	if c.HistoryBits < 0 || c.HistoryBits > c.BankBits {
		return fmt.Errorf("core: history width %d out of range [0,%d]", c.HistoryBits, c.BankBits)
	}
	return nil
}

// BiMode is the bi-mode branch predictor.
type BiMode struct {
	cfg Config
	// choicePlane and dirPlane are the packed counter planes (layout in
	// packed.go): choicePlane[ci] holds the choice counter pre-shifted
	// into bits 4:6, dirPlane[di] holds the not-taken bank counter in
	// bits 0:2 and the taken bank counter in bits 2:4.
	choicePlane []uint8
	dirPlane    []uint8
	// lut is the fused transition table for this configuration's ablation
	// knobs; one lookup yields the next choice field, the next direction
	// pair and the mispredict bit.
	lut     *[256]uint8
	ghr     *history.Global
	chMask  uint64
	dirMask uint64
}

// New returns a bi-mode predictor for the given configuration.
func New(cfg Config) (*BiMode, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	b := &BiMode{
		cfg:         cfg,
		choicePlane: make([]uint8, 1<<uint(cfg.ChoiceBits)),
		dirPlane:    make([]uint8, 1<<uint(cfg.BankBits)),
		lut:         fusedLUTFor(cfg),
		ghr:         history.NewGlobal(cfg.HistoryBits),
		chMask:      1<<uint(cfg.ChoiceBits) - 1,
		dirMask:     1<<uint(cfg.BankBits) - 1,
	}
	b.resetPlanes()
	return b, nil
}

// MustNew is New for configurations known valid at compile time; it panics
// on error.
func MustNew(cfg Config) *BiMode {
	b, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// resetPlanes restores the paper's initialization (footnote 2) in packed
// form.
func (b *BiMode) resetPlanes() {
	for i := range b.choicePlane {
		b.choicePlane[i] = fusedChoiceInit
	}
	for i := range b.dirPlane {
		b.dirPlane[i] = fusedPairInit
	}
}

// Name implements predictor.Predictor.
func (b *BiMode) Name() string {
	tag := fmt.Sprintf("bi-mode(%dc,%db,%dh)", b.cfg.ChoiceBits, b.cfg.BankBits, b.cfg.HistoryBits)
	if b.cfg.FullChoiceUpdate {
		tag += "+fullchoice"
	}
	if b.cfg.UpdateBothBanks {
		tag += "+bothbanks"
	}
	return tag
}

// Config returns the predictor's configuration.
func (b *BiMode) Config() Config { return b.cfg }

// choiceIndex maps a branch PC to its choice counter.
//
//bimode:hotpath
func (b *BiMode) choiceIndex(pc uint64) int { return int((pc >> 2) & b.chMask) }

// dirIndex maps (PC, current history) to the counter consulted in either
// direction bank.
//
//bimode:hotpath
func (b *BiMode) dirIndex(pc uint64) int {
	return int(((pc >> 2) ^ b.ghr.Value()) & b.dirMask)
}

// bankFor translates a choice prediction into a bank identifier.
//
//bimode:hotpath
func bankFor(choiceTaken bool) int {
	if choiceTaken {
		return BankTaken
	}
	return BankNotTaken
}

// choiceBitAt returns the steering bit (1 = taken bank) of the choice
// counter at plane index ci. Re-masking ci with len-1 (equal to chMask by
// construction, so a no-op for in-range callers) under the non-empty
// guard lets the prove pass drop the bounds check.
//
//bimode:hotpath
func (b *BiMode) choiceBitAt(ci int) uint8 {
	choice := b.choicePlane
	if len(choice) == 0 {
		return 0 // unreachable: planes are non-empty by construction
	}
	return choice[uint(ci)&uint(len(choice)-1)] >> (fusedChoiceShift + 1)
}

// dirStateAt returns the given bank's counter at plane index di as a
// counter.State. Bounds-check-free via the same re-mask as choiceBitAt.
//
//bimode:hotpath
func (b *BiMode) dirStateAt(bank, di int) counter.State {
	dir := b.dirPlane
	if len(dir) == 0 {
		return eightStates[0] // unreachable: planes are non-empty by construction
	}
	return eightStates[dir[uint(di)&uint(len(dir)-1)]>>(uint(bank)*fusedBankTShift)&3]
}

// Predict implements predictor.Predictor.
func (b *BiMode) Predict(pc uint64) bool {
	cb := b.choiceBitAt(b.choiceIndex(pc))
	return b.dirStateAt(int(cb), b.dirIndex(pc)).Taken2()
}

// fusedStep is the bi-mode per-record transition — selective bank
// training and the partial choice update, per this configuration's LUT —
// at plane indices ci&chMask and di&dirMask. It returns the LUT value,
// whose bit fusedMissShift is the mispredict bit. The masks are the
// planes' lengths minus one; the guard that checks it lets the prove
// pass drop the bounds checks, and in a caller that computed the masks
// from the lengths it proves away too. Update reaches it through stepAt;
// ProbeBatch inlines it with the planes, masks and LUT in locals. RunBatch
// keeps the same three lines written out: inlined into its two-way
// unrolled loop, the helper made the register allocator spill the LUT
// value to the stack on every record, about 10% of RunBatch's time per
// record.
//
//bimode:hotpath
func fusedStep(lut *[256]uint8, choice, dir []uint8, chMask, dirMask, ci, di uint64, tk uint8) uint8 {
	if chMask >= uint64(len(choice)) || dirMask >= uint64(len(dir)) {
		return 0 // unreachable: the masks are the planes' lengths minus one
	}
	c := ci & chMask
	d := di & dirMask
	v := lut[tk<<fusedOutcomeShift|choice[c]|dir[d]]
	dir[d] = v & fusedPairMask
	choice[c] = v & fusedChoiceMask
	return v
}

// stepAt applies fusedStep to the predictor's own planes and returns the
// mispredict bit.
//
//bimode:hotpath
func (b *BiMode) stepAt(ci, di int, tk uint8) uint8 {
	return fusedStep(b.lut, b.choicePlane, b.dirPlane, b.chMask, b.dirMask, uint64(ci), uint64(di), tk) >> fusedMissShift
}

// Update implements predictor.Predictor, applying the paper's partial
// update policy (or the ablation variants selected in the Config).
func (b *BiMode) Update(pc uint64, taken bool) {
	b.stepAt(b.choiceIndex(pc), b.dirIndex(pc), counter.OutcomeBit(taken))
	b.ghr.Push(taken)
}

// RunBatch implements predictor.BatchRunner: the whole-trace loop with the
// packed planes, the transition LUT and the history register held in
// locals. Per branch it does exactly two plane loads, one LUT probe and
// two plane stores — no conditional branch but the record loop itself, for
// every configuration including the ablation variants (their policy
// differences are baked into the LUT at construction). The paper's partial
// update rule costs nothing here: it is pre-applied in the LUT's choice
// field (mask algebra in DESIGN.md §12). The uint8 key makes the LUT probe
// bounds-check-free; the plane masks are len-1 by construction.
//
//bimode:hotpath
func (b *BiMode) RunBatch(recs []trace.Record) int {
	choice := b.choicePlane
	dir := b.dirPlane
	lut := b.lut
	if len(choice) == 0 || len(dir) == 0 {
		return 0 // unreachable (planes are non-empty); lets the compiler drop bounds checks
	}
	chMask := uint64(len(choice) - 1)
	dirMask := uint64(len(dir) - 1)
	h := b.ghr.Value()
	hMask := b.ghr.Mask()

	// Two-way unroll with split mispredict accumulators: halves the loop
	// overhead per record and keeps the two LUT probe chains independent
	// of each other's count update. The table state itself is serially
	// dependent by definition (record i+1 may hit the byte record i just
	// wrote), which the in-order store->load forwarding handles.
	// The pair loop advances by reslicing (recs = recs[2:]) rather than by
	// a two-stride index: the len(recs) >= 2 guard then proves recs[0] and
	// recs[1] in range, so the record loads carry no bounds checks either.
	miss0, miss1 := 0, 0
	for len(recs) >= 2 {
		r0 := &recs[0]
		addr := r0.PC >> 2
		tk := counter.OutcomeBit(r0.Taken)
		ci := addr & chMask
		di := (addr ^ h) & dirMask
		v := lut[tk<<fusedOutcomeShift|choice[ci]|dir[di]]
		dir[di] = v & fusedPairMask
		choice[ci] = v & fusedChoiceMask
		miss0 += int(v >> fusedMissShift)
		h = (h<<1 | uint64(tk)) & hMask

		r1 := &recs[1]
		addr = r1.PC >> 2
		tk = counter.OutcomeBit(r1.Taken)
		ci = addr & chMask
		di = (addr ^ h) & dirMask
		v = lut[tk<<fusedOutcomeShift|choice[ci]|dir[di]]
		dir[di] = v & fusedPairMask
		choice[ci] = v & fusedChoiceMask
		miss1 += int(v >> fusedMissShift)
		h = (h<<1 | uint64(tk)) & hMask

		recs = recs[2:]
	}
	for j := range recs {
		r := &recs[j]
		addr := r.PC >> 2
		tk := counter.OutcomeBit(r.Taken)
		ci := addr & chMask
		di := (addr ^ h) & dirMask
		v := lut[tk<<fusedOutcomeShift|choice[ci]|dir[di]]
		dir[di] = v & fusedPairMask
		choice[ci] = v & fusedChoiceMask
		miss0 += int(v >> fusedMissShift)
		h = (h<<1 | uint64(tk)) & hMask
	}
	b.ghr.Set(h)
	return miss0 + miss1
}

// ProbeBatch implements predictor.ProbeBatcher: RunBatch's loop, with
// the transition through fusedStep, that also writes each record's row —
// the counter and bank the choice counter steers to, and the mispredict
// bit — so the observer gets ProbeLookup, Predict and Update for the
// price of one batched step.
//
//bimode:hotpath
func (b *BiMode) ProbeBatch(recs []trace.Record, rows []predictor.ProbeRow) {
	if len(rows) < len(recs) {
		panic(predictor.ErrShortRows)
	}
	choice := b.choicePlane
	dir := b.dirPlane
	lut := b.lut
	if len(choice) == 0 || len(dir) == 0 {
		return // unreachable (planes are non-empty); lets the compiler drop bounds checks
	}
	chMask := uint64(len(choice) - 1)
	dirMask := uint64(len(dir) - 1)
	bankShift := uint(b.cfg.BankBits)
	h := b.ghr.Value()
	hMask := b.ghr.Mask()
	for i := range recs {
		r := &recs[i]
		addr := r.PC >> 2
		tk := counter.OutcomeBit(r.Taken)
		di := (addr ^ h) & dirMask
		bank := choice[addr&chMask] >> (fusedChoiceShift + 1)
		v := fusedStep(lut, choice, dir, chMask, dirMask, addr, di, tk)
		row := &rows[i]
		row.CounterID = int32(uint64(bank)<<bankShift | di)
		row.Bank = int32(bank)
		row.ChoiceTaken = bank == BankTaken
		row.HasChoice = true
		row.Miss = v>>fusedMissShift == 1
		h = (h<<1 | uint64(tk)) & hMask
	}
	b.ghr.Set(h)
}

// Reset implements predictor.Predictor, restoring the paper's
// initialization (footnote 2).
func (b *BiMode) Reset() {
	b.resetPlanes()
	b.ghr.Reset()
}

// CostBits implements predictor.Predictor: choice counters plus both
// direction banks, all two bits wide. With ChoiceBits == BankBits this is
// 3*2^BankBits two-bit counters, i.e. 1.5x the cost of a
// 2^(BankBits+1)-counter gshare, matching the paper's placement on the
// size axis. The cost is the modeled hardware budget, not the packed
// in-memory footprint.
func (b *BiMode) CostBits() int {
	return 2*len(b.choicePlane) + 2*2*len(b.dirPlane)
}

// NumCounters implements predictor.Probe (both banks).
func (b *BiMode) NumCounters() int { return 2 << uint(b.cfg.BankBits) }

// ProbeLookup implements predictor.Probe: the bank the choice predictor
// steers pc to, the choice direction itself, and the direction counter the
// selected bank would consult. Read-only, like Predict. The two banks'
// counters get disjoint dense identifiers: bank*2^BankBits + index.
func (b *BiMode) ProbeLookup(pc uint64) predictor.Lookup {
	bank := int(b.choiceBitAt(b.choiceIndex(pc)))
	return predictor.Lookup{
		CounterID:   bank<<uint(b.cfg.BankBits) + b.dirIndex(pc),
		Bank:        bank,
		ChoiceTaken: bank == BankTaken,
		HasChoice:   true,
	}
}

// ChoiceState returns the raw state of the choice counter for pc; exposed
// for the analysis tooling and tests.
func (b *BiMode) ChoiceState(pc uint64) counter.State {
	return eightStates[b.choicePlane[b.choiceIndex(pc)]>>fusedChoiceShift&3]
}

// BankCounterState returns the raw state of the given bank's counter that
// pc currently maps to; exposed for tests.
func (b *BiMode) BankCounterState(bank int, pc uint64) counter.State {
	return b.dirStateAt(bank, b.dirIndex(pc))
}

// choiceStates appends the unpacked choice table to dst in index order;
// the unpacked view behind the property tests.
func (b *BiMode) choiceStates(dst []counter.State) []counter.State {
	return unpackPlaneField(dst, b.choicePlane, fusedChoiceShift, 2)
}

// bankStates appends the given direction bank's unpacked counters to dst
// in index order.
func (b *BiMode) bankStates(bank int, dst []counter.State) []counter.State {
	return unpackPlaneField(dst, b.dirPlane, uint(bank)*fusedBankTShift, 2)
}

// setChoiceStates overwrites the choice table from an unpacked view;
// len(states) must equal the table length.
func (b *BiMode) setChoiceStates(states []counter.State) {
	packPlaneField(b.choicePlane, states, fusedChoiceShift, 2)
}

// setBankStates overwrites one direction bank from an unpacked view,
// leaving the other bank's bits intact; len(states) must equal the bank
// length.
func (b *BiMode) setBankStates(bank int, states []counter.State) {
	packPlaneField(b.dirPlane, states, uint(bank)*fusedBankTShift, 2)
}
