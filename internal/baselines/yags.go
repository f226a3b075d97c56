package baselines

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/history"
	"bimode/internal/trace"
)

// YAGS ("Yet Another Global Scheme", Eden & Mudge 1998) is the successor
// de-aliasing design from the same group, included here as the paper's
// "future work" direction made concrete: instead of duplicating whole
// direction banks as bi-mode does, YAGS keeps only the *exceptions* to the
// choice predictor's bias in two small tagged caches (a taken-cache
// consulted for not-taken-biased branches and vice versa). A tag hit
// overrides the choice prediction.
//
// Both caches live in one table: entry sel<<cacheBits | idx, where sel 0
// is the NT cache (the exceptions of taken-biased branches) and sel 1 the
// T cache. An entry's tag word is yagsValid | its partial tag, or 0 while
// the entry is empty, so one compare tests both the valid bit and the
// tag. Predict/Update and RunBatch share this representation.
type YAGS struct {
	choice    *Smith
	tags      []uint32       // both caches' tag words, 2<<cacheBits entries
	ctrs      *counter.Table // both caches' counters, indexed like tags
	ghr       *history.Global
	cacheBits int
	histBits  int
	tagBits   int
	idxMask   uint64
	tagMask   uint64
}

// yagsValid is an exception entry's valid bit, just above the widest
// (16-bit) partial tag in its tag word.
const yagsValid = 1 << 16

// NewYAGS returns a YAGS predictor with a 2^choiceBits choice table, two
// exception caches of 2^cacheBits entries each, tagBits-wide partial tags,
// and histBits of global history.
func NewYAGS(choiceBits, cacheBits, histBits, tagBits int) *YAGS {
	if cacheBits < 0 || cacheBits > 26 || histBits < 0 || histBits > cacheBits {
		panic(fmt.Sprintf("baselines: yags widths (%de,%dh) invalid", cacheBits, histBits))
	}
	if tagBits < 1 || tagBits > 16 {
		panic(fmt.Sprintf("baselines: yags tag width %d out of range [1,16]", tagBits))
	}
	return &YAGS{
		choice: NewSmith(choiceBits),
		tags:   make([]uint32, 2<<uint(cacheBits)),
		// A counter is set whenever its entry is allocated, before any
		// read, so its initial state is never observed.
		ctrs:      counter.NewTwoBit(2<<uint(cacheBits), counter.WeakTaken),
		ghr:       history.NewGlobal(histBits),
		cacheBits: cacheBits,
		histBits:  histBits,
		tagBits:   tagBits,
		idxMask:   1<<uint(cacheBits) - 1,
		tagMask:   1<<uint(tagBits) - 1,
	}
}

// Name implements predictor.Predictor.
func (y *YAGS) Name() string {
	return fmt.Sprintf("yags(%dc,%de,%dh,%dt)", y.choice.bits, y.cacheBits, y.histBits, y.tagBits)
}

// slot returns the exception entry a branch consults when the choice
// predicts choiceTaken: a taken bias consults the NT cache and vice
// versa, at the index gshare would use within it.
func (y *YAGS) slot(pc uint64, choiceTaken bool) int {
	i := ((pc >> 2) ^ y.ghr.Value()) & y.idxMask
	if !choiceTaken {
		i |= 1 << uint(y.cacheBits)
	}
	return int(i)
}

// tagWord is the tag word of a valid entry that holds pc.
func (y *YAGS) tagWord(pc uint64) uint32 {
	return yagsValid | uint32((pc>>2)&y.tagMask)
}

// Predict implements predictor.Predictor.
func (y *YAGS) Predict(pc uint64) bool {
	choiceTaken := y.choice.Predict(pc)
	k := y.slot(pc, choiceTaken)
	if y.tags[k] == y.tagWord(pc) {
		return y.ctrs.Taken(k)
	}
	return choiceTaken
}

// Update implements predictor.Predictor.
func (y *YAGS) Update(pc uint64, taken bool) {
	choiceTaken := y.choice.Predict(pc)
	k := y.slot(pc, choiceTaken)
	hit := y.tags[k] == y.tagWord(pc)

	if hit {
		y.ctrs.Update(k, taken)
	} else if taken != choiceTaken {
		// The branch deviated from its bias: allocate an exception entry.
		y.tags[k] = y.tagWord(pc)
		if taken {
			y.ctrs.Set(k, counter.WeakTaken)
		} else {
			y.ctrs.Set(k, counter.WeakNotTaken)
		}
	}

	// Choice update mirrors bi-mode's partial policy: do not weaken the
	// bias when the exception cache covered the deviation.
	if !(choiceTaken != taken && hit && y.ctrs.Taken(k) == taken) {
		y.choice.Update(pc, taken)
	}
	y.ghr.Push(taken)
}

// RunBatch implements predictor.BatchRunner: Predict+Update's transition
// over the whole slice with the choice table, the exception table and
// the history register in locals.
//
// The two candidate entries, one per cache, depend only on the PC and
// the history, so both are loaded before the choice counter resolves
// which one the branch consults; the choice's taken bit then selects. A
// hit is a bit: it selects the prediction, and as the enable key of
// counter.SatNextIf it trains the entry's counter. A miss that deviates
// from the bias allocates the entry: it takes the branch's tag word, and
// its counter starts weakly not-taken and trains once if the outcome was
// taken, which lands it in the outcome's weak state. The choice counter
// trains unless it was wrong and the hit entry, trained, now predicts
// the outcome.
//
//bimode:hotpath
func (y *YAGS) RunBatch(recs []trace.Record) int {
	choice := y.choice.table.Raw()
	tags, ctrs := y.tags, y.ctrs.Raw()
	if len(choice) == 0 || len(tags) == 0 || len(ctrs) != len(tags) {
		return 0 // unreachable (non-empty tables, counters beside tags); lets the compiler drop bounds checks
	}
	choiceMask := uint64(len(choice) - 1)
	kMask := uint64(len(tags) - 1)
	e := uint(y.cacheBits) & 63
	idxMask, tagMask := y.idxMask, y.tagMask
	h := y.ghr.Value()
	hMask := y.ghr.Mask()
	miss := 0
	for i := range recs {
		r := &recs[i]
		tk := counter.OutcomeBit(r.Taken)
		addr := r.PC >> 2
		ci := addr & choiceMask
		cv := choice[ci]
		idx := (addr ^ h) & idxMask
		want := yagsValid | uint32(addr&tagMask)
		ntK, tK := idx&kMask, (idx|1<<e)&kMask
		ntTag, tTag := tags[ntK], tags[tK]
		ntV, tV := ctrs[ntK], ctrs[tK]
		ct := cv.TakenBit()
		k := (idx | uint64(ct^1)<<e) & kMask
		tag, v := tTag, tV
		if ct != 0 {
			tag, v = ntTag, ntV
		}
		hit := counter.OutcomeBit(tag == want)
		pred := ct ^ (ct^v.TakenBit())&hit
		miss += int(pred ^ tk)
		alloc := (hit ^ 1) & (ct ^ tk)
		from := v
		if alloc != 0 {
			from = counter.WeakNotTaken
		}
		nv := counter.SatNextIf(from, tk, hit|alloc&tk)
		ctrs[k] = nv
		tags[k] = tag ^ (tag^want)&-uint32(alloc)
		covered := (ct ^ tk) & hit & (nv.TakenBit() ^ tk ^ 1)
		choice[ci] = counter.SatNextIf(cv, tk, covered^1)
		h = (h<<1 | uint64(tk)) & hMask
	}
	y.ghr.Set(h)
	return miss
}

// Reset implements predictor.Predictor.
func (y *YAGS) Reset() {
	y.choice.Reset()
	clear(y.tags)
	y.ctrs.Reset()
	y.ghr.Reset()
}

// CostBits implements predictor.Predictor: choice counters plus, for each
// cache entry, a two-bit counter, the partial tag, and a valid bit.
func (y *YAGS) CostBits() int {
	perEntry := 2 + y.tagBits + 1
	return y.choice.CostBits() + 2*(1<<uint(y.cacheBits))*perEntry
}
