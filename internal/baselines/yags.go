package baselines

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/history"
)

// YAGS ("Yet Another Global Scheme", Eden & Mudge 1998) is the successor
// de-aliasing design from the same group, included here as the paper's
// "future work" direction made concrete: instead of duplicating whole
// direction banks as bi-mode does, YAGS keeps only the *exceptions* to the
// choice predictor's bias in two small tagged caches (a taken-cache
// consulted for not-taken-biased branches and vice versa). A tag hit
// overrides the choice prediction.
type YAGS struct {
	choice    *Smith
	caches    [2]yagsCache // [0] = NT cache (exceptions of taken-biased), [1] = T cache
	ghr       *history.Global
	cacheBits int
	histBits  int
	tagBits   int
	idxMask   uint64
	tagMask   uint64
}

type yagsCache struct {
	tags  []uint16
	valid []bool
	ctrs  *counter.Table
}

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
	y := &YAGS{
		choice:    NewSmith(choiceBits),
		ghr:       history.NewGlobal(histBits),
		cacheBits: cacheBits,
		histBits:  histBits,
		tagBits:   tagBits,
		idxMask:   1<<uint(cacheBits) - 1,
		tagMask:   1<<uint(tagBits) - 1,
	}
	for i := range y.caches {
		init := counter.WeakNotTaken
		if i == 1 {
			init = counter.WeakTaken
		}
		y.caches[i] = yagsCache{
			tags:  make([]uint16, 1<<uint(cacheBits)),
			valid: make([]bool, 1<<uint(cacheBits)),
			ctrs:  counter.NewTwoBit(1<<uint(cacheBits), init),
		}
	}
	return y
}

// Name implements predictor.Predictor.
func (y *YAGS) Name() string {
	return fmt.Sprintf("yags(%dc,%de,%dh,%dt)", y.choice.bits, y.cacheBits, y.histBits, y.tagBits)
}

func (y *YAGS) index(pc uint64) int { return int(((pc >> 2) ^ y.ghr.Value()) & y.idxMask) }
func (y *YAGS) tag(pc uint64) uint16 {
	return uint16((pc >> 2) & y.tagMask)
}

// cacheFor returns the exception cache consulted when the choice predicts
// the given direction: a taken bias consults the NT cache and vice versa.
func (y *YAGS) cacheFor(choiceTaken bool) *yagsCache {
	if choiceTaken {
		return &y.caches[0]
	}
	return &y.caches[1]
}

// Predict implements predictor.Predictor.
func (y *YAGS) Predict(pc uint64) bool {
	choiceTaken := y.choice.Predict(pc)
	c := y.cacheFor(choiceTaken)
	i := y.index(pc)
	if c.valid[i] && c.tags[i] == y.tag(pc) {
		return c.ctrs.Taken(i)
	}
	return choiceTaken
}

// Update implements predictor.Predictor.
func (y *YAGS) Update(pc uint64, taken bool) {
	choiceTaken := y.choice.Predict(pc)
	c := y.cacheFor(choiceTaken)
	i := y.index(pc)
	hit := c.valid[i] && c.tags[i] == y.tag(pc)

	if hit {
		c.ctrs.Update(i, taken)
	} else if taken != choiceTaken {
		// The branch deviated from its bias: allocate an exception entry.
		c.valid[i] = true
		c.tags[i] = y.tag(pc)
		if taken {
			c.ctrs.Set(i, counter.WeakTaken)
		} else {
			c.ctrs.Set(i, counter.WeakNotTaken)
		}
	}

	// Choice update mirrors bi-mode's partial policy: do not weaken the
	// bias when the exception cache covered the deviation.
	if !(choiceTaken != taken && hit && c.ctrs.Taken(i) == taken) {
		y.choice.Update(pc, taken)
	}
	y.ghr.Push(taken)
}

// Reset implements predictor.Predictor.
func (y *YAGS) Reset() {
	y.choice.Reset()
	for i := range y.caches {
		c := &y.caches[i]
		for j := range c.tags {
			c.tags[j] = 0
			c.valid[j] = false
		}
		c.ctrs.Reset()
	}
	y.ghr.Reset()
}

// CostBits implements predictor.Predictor: choice counters plus, for each
// cache entry, a two-bit counter, the partial tag, and a valid bit.
func (y *YAGS) CostBits() int {
	perEntry := 2 + y.tagBits + 1
	return y.choice.CostBits() + 2*(1<<uint(y.cacheBits))*perEntry
}
