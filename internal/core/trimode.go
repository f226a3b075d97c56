package core

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/history"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// TriMode is this repository's concrete take on the paper's stated future
// work: "further separate the weakly-biased substreams from the strongly-
// biased substreams for the counters" (Section 5).
//
// It extends bi-mode with a THIRD direction bank reserved for weakly
// biased branches. The choice predictor is widened to a 3-bit confidence
// counter per branch: its direction bit steers between the taken and
// not-taken banks exactly as in bi-mode, but when the counter sits in the
// low-confidence middle of its range the branch is classified weakly
// biased and steered to the dedicated WB bank instead. Strongly biased
// branches therefore never share direction counters with the noisy WB
// substreams that the paper identifies as bi-mode's residual
// interference.
//
// Updates follow bi-mode's discipline: only the selected bank's counter
// is trained, and the choice counter keeps bi-mode's partial update rule
// (it is not weakened when its direction call was wrong but the selected
// counter predicted correctly).
//
// Representation: like BiMode, the counters live in packed planes — the
// raw 3-bit confidence counters in one byte plane, all three direction
// banks' counters for the same index packed into one byte of the other —
// and the whole per-branch transition (classification, selective bank
// training, partial choice update) is one probe of the precomputed triLUT
// (packed.go).
type TriMode struct {
	cfg Config
	// choicePlane holds the raw 3-bit confidence counters, one byte each.
	// dirPlane packs the three banks per direction index: not-taken bank
	// in bits 0:2, taken bank in bits 2:4, WB bank in bits 4:6.
	choicePlane []uint8
	dirPlane    []uint8
	ghr         *history.Global
	chMask      uint64
	dirMask     uint64
}

// bankWeak is the third direction bank, holding weakly biased branches.
const bankWeak = 2

// NewTriMode builds a tri-mode predictor from a bi-mode configuration;
// the WB bank has the same size as each direction bank, so total cost is
// 4*2^BankBits direction counters plus a 3-bit choice table.
func NewTriMode(cfg Config) (*TriMode, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	t := &TriMode{
		cfg:         cfg,
		choicePlane: make([]uint8, 1<<uint(cfg.ChoiceBits)),
		dirPlane:    make([]uint8, 1<<uint(cfg.BankBits)),
		ghr:         history.NewGlobal(cfg.HistoryBits),
		chMask:      1<<uint(cfg.ChoiceBits) - 1,
		dirMask:     1<<uint(cfg.BankBits) - 1,
	}
	t.resetPlanes()
	return t, nil
}

// MustNewTriMode is NewTriMode that panics on error.
func MustNewTriMode(cfg Config) *TriMode {
	t, err := NewTriMode(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

// resetPlanes restores the initialization: confidence counters weakly
// taken and centered, NT bank weakly not-taken, T and WB banks weakly
// taken.
func (t *TriMode) resetPlanes() {
	for i := range t.choicePlane {
		t.choicePlane[i] = triChoiceInit
	}
	for i := range t.dirPlane {
		t.dirPlane[i] = triPairInit
	}
}

// Name implements predictor.Predictor.
func (t *TriMode) Name() string {
	return fmt.Sprintf("tri-mode(%dc,%db,%dh)", t.cfg.ChoiceBits, t.cfg.BankBits, t.cfg.HistoryBits)
}

//bimode:hotpath
func (t *TriMode) choiceIndex(pc uint64) int { return int((pc >> 2) & t.chMask) }

//bimode:hotpath
func (t *TriMode) dirIndex(pc uint64) int { return int(((pc >> 2) ^ t.ghr.Value()) & t.dirMask) }

// classify maps a choice-counter state to a bank. The band comparison
// needs the raw bit pattern, so it goes through counter.Bits — the one
// sanctioned escape from the counter-state encapsulation.
//
//bimode:hotpath
func (t *TriMode) classify(v counter.State) int {
	return triClassify(counter.Bits(v))
}

// choiceStateAt returns the raw confidence counter at plane index ci as a
// counter.State; exposed in-package for the tests.
//
//bimode:hotpath
func (t *TriMode) choiceStateAt(ci int) counter.State {
	choice := t.choicePlane
	if len(choice) == 0 {
		return eightStates[0] // unreachable: planes are non-empty by construction
	}
	return eightStates[choice[uint(ci)&uint(len(choice)-1)]&7]
}

// dirStateAt returns the given bank's counter at plane index di.
// Re-masking di with len-1 (equal to dirMask by construction, so a no-op
// for in-range callers) under the non-empty guard lets the prove pass
// drop the bounds check.
//
//bimode:hotpath
func (t *TriMode) dirStateAt(bank, di int) counter.State {
	dir := t.dirPlane
	if len(dir) == 0 {
		return eightStates[0] // unreachable: planes are non-empty by construction
	}
	return eightStates[dir[uint(di)&uint(len(dir)-1)]>>(uint(bank)*2)&3]
}

// Predict implements predictor.Predictor.
func (t *TriMode) Predict(pc uint64) bool {
	bank := triClassify(t.choicePlane[t.choiceIndex(pc)])
	return t.dirStateAt(bank, t.dirIndex(pc)).Taken2()
}

// stepAt applies the full tri-mode transition — classification, selective
// bank training, the partial/always-track choice update — at the given
// plane indices via one triLUT probe, returning the mispredict bit.
//
//bimode:hotpath
func (t *TriMode) stepAt(ci, di int, tk uint8) uint8 {
	choice := t.choicePlane
	dir := t.dirPlane
	if len(choice) == 0 || len(dir) == 0 {
		return 0 // unreachable: planes are non-empty by construction
	}
	c := uint(ci) & uint(len(choice)-1)
	d := uint(di) & uint(len(dir)-1)
	key := (uint16(tk)<<triOutcomeBit |
		uint16(choice[c])<<triChoiceShift |
		uint16(dir[d])) & triKeyMask
	v := triLUT[key]
	dir[d] = uint8(v) & triPairMask
	choice[c] = uint8(v>>triValueShift) & triChoiceMask
	return uint8(v >> triMissShift)
}

// Update implements predictor.Predictor.
//
// The choice policy baked into triLUT is partial update in bi-mode's
// spirit, applied only while the branch is classified strongly biased:
// the confidence counter moves toward the outcome except when its
// direction call disagreed with the outcome but the selected bank's
// counter predicted correctly. For WB-classified branches the counter
// always tracks the outcome — the exception rule's asymmetric skips would
// otherwise drift weakly biased branches out of the WB bank.
func (t *TriMode) Update(pc uint64, taken bool) {
	t.stepAt(t.choiceIndex(pc), t.dirIndex(pc), counter.OutcomeBit(taken))
	t.ghr.Push(taken)
}

// RunBatch implements predictor.BatchRunner: the same fused whole-trace
// loop as BiMode.RunBatch on the tri-mode planes — two plane loads, one
// triLUT probe and two stores per branch, with classification and both
// update policies pre-applied in the LUT. The masked uint16 key keeps the
// LUT probe bounds-check-free.
//
//bimode:hotpath
func (t *TriMode) RunBatch(recs []trace.Record) int {
	choice := t.choicePlane
	dir := t.dirPlane
	if len(choice) == 0 || len(dir) == 0 {
		return 0 // unreachable (planes are non-empty); lets the compiler drop bounds checks
	}
	chMask := uint64(len(choice) - 1)
	dirMask := uint64(len(dir) - 1)
	h := t.ghr.Value()
	hMask := t.ghr.Mask()

	miss := 0
	for i := range recs {
		r := &recs[i]
		addr := r.PC >> 2
		tk := counter.OutcomeBit(r.Taken)

		ci := addr & chMask
		di := (addr ^ h) & dirMask
		key := (uint16(tk)<<triOutcomeBit |
			uint16(choice[ci])<<triChoiceShift |
			uint16(dir[di])) & triKeyMask
		v := triLUT[key]
		dir[di] = uint8(v) & triPairMask
		choice[ci] = uint8(v>>triValueShift) & triChoiceMask
		miss += int(v >> triMissShift)

		h = (h<<1 | uint64(tk)) & hMask
	}
	t.ghr.Set(h)
	return miss
}

// Reset implements predictor.Predictor.
func (t *TriMode) Reset() {
	t.resetPlanes()
	t.ghr.Reset()
}

// CostBits implements predictor.Predictor: three two-bit banks plus the
// 3-bit choice counters. As with BiMode, the cost models the hardware
// budget, not the packed in-memory footprint.
func (t *TriMode) CostBits() int {
	return 3*len(t.choicePlane) + 3*2*len(t.dirPlane)
}

// NumCounters implements predictor.Probe (dense ids across the three
// banks).
func (t *TriMode) NumCounters() int { return 3 << uint(t.cfg.BankBits) }

// ProbeLookup implements predictor.Probe: the bank the confidence counter
// classifies pc into (including the WB bank) and the counter it would
// consult there. ChoiceTaken is the counter's direction half, the vote
// bi-mode would have made.
func (t *TriMode) ProbeLookup(pc uint64) predictor.Lookup {
	cv := t.choicePlane[t.choiceIndex(pc)]
	bank := triClassify(cv)
	return predictor.Lookup{
		CounterID:   bank<<uint(t.cfg.BankBits) + t.dirIndex(pc),
		Bank:        bank,
		ChoiceTaken: cv >= 4,
		HasChoice:   true,
	}
}

// setChoiceStates overwrites the confidence table from an unpacked view.
func (t *TriMode) setChoiceStates(states []counter.State) {
	packPlaneField(t.choicePlane, states, 0, 3)
}

// setBankStates overwrites one bank from an unpacked view, leaving the
// other banks' bits intact.
func (t *TriMode) setBankStates(bank int, states []counter.State) {
	packPlaneField(t.dirPlane, states, uint(bank)*2, 2)
}
