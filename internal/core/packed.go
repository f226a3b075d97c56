package core

import "bimode/internal/counter"

// This file defines the packed structure-of-arrays layout behind the
// fused bi-mode and tri-mode kernels, and the transition lookup tables
// that make their per-branch work a single table probe.
//
// The paper's bi-mode state is three logical two-bit counter tables: the
// PC-indexed choice PHT and the two history-indexed direction banks. The
// unpacked representation (one byte per counter, three separate tables)
// costs the hot loop three table walks and two transition computations
// per branch. The packed layout keeps two byte planes instead, sized so
// that eight lanes occupy one 64-bit word of the backing array:
//
//	choice plane: one byte per choice index ci, the two-bit choice
//	    counter pre-shifted into bits 4:6 (values 0x00/0x10/0x20/0x30).
//	    Bit 5 is therefore the steering bit ("send this branch to the
//	    taken bank").
//	direction plane: one byte per direction index di holding BOTH banks'
//	    counters for that index — the not-taken bank counter in bits 0:2
//	    and the taken bank counter in bits 2:4. One load yields the pair;
//	    bank selection is a shift, not a second walk.
//
// The pre-shifted choice encoding is what lets the whole per-branch
// transition collapse into one lookup: the LUT key is simply
//
//	key = outcome<<6 | choicePlane[ci] | dirPlane[di]
//
// (three disjoint bit fields, two ORs) and the LUT value packs the new
// choice field (bits 4:6, pre-shifted, partial-update rule applied), the
// new direction pair (bits 0:4, only the selected bank stepped) and the
// mispredict bit (bit 7) so the stores and the miss count are single
// masks of the same byte. See DESIGN.md §12 for the full mask algebra.

// Bit-field positions of the packed layout and its LUT key/value bytes.
const (
	fusedChoiceShift  = 4    // choice counter field, key and planes
	fusedChoiceMask   = 0x30 // choice field extractor
	fusedPairMask     = 0x0f // direction pair extractor (NT 0:2, T 2:4)
	fusedBankTShift   = 2    // taken-bank counter within the pair
	fusedOutcomeShift = 6    // outcome bit within the LUT key
	fusedMissShift    = 7    // mispredict bit within the LUT value
)

// Plane initialization values (paper footnote 2): choice weakly taken
// (2 pre-shifted into bits 4:6), not-taken bank weakly not-taken (1) and
// taken bank weakly taken (2) packed as a pair. The differential tests
// against the unpacked reference oracle pin these encodings.
const (
	fusedChoiceInit = 2 << fusedChoiceShift
	fusedPairInit   = 1 | 2<<fusedBankTShift
)

// twoBitStates and eightStates map raw bit patterns back into counter
// states. They are literal tables rather than conversions so the
// counterarith analyzer's no-raw-conversion rule keeps holding: the LUT
// builders and the packed-plane accessors reach counter semantics only
// through counter.SatNext / counter.Counter on these literals.
var (
	twoBitStates = [4]counter.State{0, 1, 2, 3}
	eightStates  = [8]counter.State{0, 1, 2, 3, 4, 5, 6, 7}
)

// satBits2 is the saturating two-bit step on raw bit patterns, routed
// through the counter package so the transition provably matches
// counter.Table.Update.
func satBits2(v, tk uint8) uint8 {
	return counter.Bits(counter.SatNext(twoBitStates[v&3], tk&1))
}

// buildFusedLUT precomputes the bi-mode per-branch transition for one
// (FullChoiceUpdate, UpdateBothBanks) configuration. Key and value layout
// are described at the top of this file. Entries above 127 are never
// addressed (the key's top bit is unused); the array is sized 256 so the
// kernel can index it with a uint8 and no bounds check.
func buildFusedLUT(fullChoice, bothBanks bool) *[256]uint8 {
	lut := new([256]uint8)
	for tk := uint8(0); tk < 2; tk++ {
		for cv := uint8(0); cv < 4; cv++ {
			for pair := uint8(0); pair < 16; pair++ {
				nt := pair & 3
				tb := pair >> fusedBankTShift
				choiceBit := cv >> 1
				dv := nt
				if choiceBit == 1 {
					dv = tb
				}
				predBit := dv >> 1

				// Direction banks: the selected counter always learns
				// the outcome; the unselected one only under the
				// UpdateBothBanks ablation.
				nnt, ntb := nt, tb
				if choiceBit == 1 || bothBanks {
					ntb = satBits2(tb, tk)
				}
				if choiceBit == 0 || bothBanks {
					nnt = satBits2(nt, tk)
				}

				// Choice: the paper's partial update — held exactly when
				// the choice was wrong about the bias but the selected
				// counter still predicted the branch.
				hold := (choiceBit^tk)&(predBit^tk^1) == 1
				ncv := cv
				if fullChoice || !hold {
					ncv = satBits2(cv, tk)
				}

				key := tk<<fusedOutcomeShift | cv<<fusedChoiceShift | pair
				lut[key] = (predBit^tk)<<fusedMissShift |
					ncv<<fusedChoiceShift |
					ntb<<fusedBankTShift | nnt
			}
		}
	}
	return lut
}

// fusedLUTs holds the four ablation variants, indexed by
// bothBanks<<1 | fullChoice; New picks the right one per Config so
// RunBatch, ProbeBatch and Update share one kernel for every configuration.
var fusedLUTs = [4]*[256]uint8{
	buildFusedLUT(false, false),
	buildFusedLUT(true, false),
	buildFusedLUT(false, true),
	buildFusedLUT(true, true),
}

// fusedLUTFor maps a Config's ablation knobs to its transition table.
func fusedLUTFor(cfg Config) *[256]uint8 {
	i := 0
	if cfg.FullChoiceUpdate {
		i |= 1
	}
	if cfg.UpdateBothBanks {
		i |= 2
	}
	return fusedLUTs[i]
}

// unpackPlaneField extracts the width-bit counter field at the given
// shift from every byte of a packed plane, appending the states to dst.
// Behind the state-inspection test hooks; the snapshot codec reads the
// planes directly through counter.AppendField.
func unpackPlaneField(dst []counter.State, plane []uint8, shift, width uint) []counter.State {
	mask := uint8(1<<width - 1)
	for _, b := range plane {
		dst = append(dst, eightStates[(b>>shift)&mask&7])
	}
	return dst
}

// packPlaneField stores one counter state per plane byte into the
// width-bit field at the given shift, leaving the other fields intact.
// len(states) must equal len(plane).
func packPlaneField(plane []uint8, states []counter.State, shift, width uint) {
	mask := uint8(1<<width-1) << shift
	for i, s := range states {
		plane[i] = plane[i]&^mask | counter.Bits(s)<<shift&mask
	}
}

// --- tri-mode ---

// Tri-mode packs its three direction banks the same way: one byte per
// direction index, not-taken bank in bits 0:2, taken bank in bits 2:4 and
// the weak bank in bits 4:6. Its choice plane stores the raw 3-bit
// confidence counter (0..7, unshifted — the wider key is assembled with
// explicit shifts). The LUT key is outcome<<9 | choice<<6 | pair and the
// uint16 value packs mispredict<<15 | newChoice<<8 | newPair.
const (
	triPairMask    = 0x3f // three 2-bit bank fields
	triChoiceMask  = 0x07
	triChoiceShift = 6 // choice field within the LUT key
	triOutcomeBit  = 9 // outcome bit within the LUT key
	triKeyMask     = 0x3ff
	triValueShift  = 8  // new choice field within the LUT value
	triMissShift   = 15 // mispredict bit within the LUT value
)

// Tri-mode classification bounds: raw 3-bit choice values in
// (triLoBound, triHiBound) classify the branch weakly biased.
const (
	triLoBound = 1
	triHiBound = 6
)

// triChoiceInit is the tri-mode choice initialization: weakly taken,
// centered (counter.NewTable(…, 3, 4) in the unpacked representation).
const triChoiceInit = 4

// triPairInit packs the three banks' initialization: NT weakly not-taken,
// T weakly taken, WB weakly taken.
const triPairInit = 1 | 2<<2 | 2<<4

// triClassify maps a raw 3-bit choice value to the bank it steers to.
//
//bimode:hotpath
func triClassify(cv uint8) int {
	switch {
	case cv <= triLoBound:
		return BankNotTaken
	case cv >= triHiBound:
		return BankTaken
	default:
		return bankWeak
	}
}

// satBits3 is the saturating three-bit step on raw bit patterns, routed
// through counter.Counter so it provably matches Table.Update at width 3.
func satBits3(v, tk uint8) uint8 {
	c := counter.New(3, eightStates[v&7])
	c.Update(tk&1 == 1)
	return counter.Bits(c.Value())
}

// buildTriLUT precomputes the tri-mode per-branch transition: bank
// classification, selective bank training, and the bi-mode-spirit partial
// choice update (always-track for WB-classified branches).
func buildTriLUT() *[1024]uint16 {
	lut := new([1024]uint16)
	for tk := uint16(0); tk < 2; tk++ {
		for cv := uint16(0); cv < 8; cv++ {
			for pair := uint16(0); pair < 64; pair++ {
				bank := triClassify(uint8(cv))
				sh := uint(2 * bank)
				dv := uint8(pair>>sh) & 3
				predBit := uint16(dv >> 1)

				ndv := uint16(satBits2(dv, uint8(tk)))
				npair := pair&^(3<<sh) | ndv<<sh

				choiceTaken := cv >= 4
				hold := bank != bankWeak &&
					choiceTaken != (tk == 1) && predBit == tk
				ncv := cv
				if !hold {
					ncv = uint16(satBits3(uint8(cv), uint8(tk)))
				}

				key := tk<<triOutcomeBit | cv<<triChoiceShift | pair
				lut[key] = (predBit^tk)<<triMissShift |
					ncv<<triValueShift | npair
			}
		}
	}
	return lut
}

// triLUT is the single tri-mode transition table (tri-mode has no
// ablation knobs).
var triLUT = buildTriLUT()
