package baselines

import (
	"fmt"
	"math/bits"

	"bimode/internal/counter"
	"bimode/internal/history"
	"bimode/internal/trace"
)

// Filter implements the PHT-interference filtering mechanism of Chang,
// Evers and Patt [ChangEversPatt96], another de-aliasing rival the paper
// cites. Each static branch carries a direction bit and a saturating
// run counter; while a branch keeps going the same direction, the run
// counter climbs. Once it saturates, the branch is classified as highly
// biased and predicted by its direction bit WITHOUT consulting (or
// updating) the gshare PHT — filtering the easy branches' updates out of
// the shared table so they cannot interfere with the hard ones.
type Filter struct {
	pht       *counter.Table
	ghr       *history.Global
	dir       []bool  // last direction per filter entry
	run       []uint8 // consecutive same-direction count, saturating
	indexBits int
	histBits  int
	filterMax uint8
	idxMask   uint64
	fltMask   uint64
}

// NewFilter returns a filter predictor: a 2^indexBits-counter gshare PHT
// behind 2^filterBits filter entries whose run counters saturate at
// filterMax.
func NewFilter(indexBits, histBits, filterBits int, filterMax uint8) *Filter {
	if indexBits < 0 || indexBits > 28 || histBits < 0 || histBits > indexBits {
		panic(fmt.Sprintf("baselines: filter widths (%di,%dh) invalid", indexBits, histBits))
	}
	if filterBits < 0 || filterBits > 28 {
		panic(fmt.Sprintf("baselines: filter table width %d invalid", filterBits))
	}
	if filterMax == 0 {
		panic("baselines: filter threshold must be positive")
	}
	return &Filter{
		pht:       counter.NewTwoBit(1<<uint(indexBits), counter.WeakTaken),
		ghr:       history.NewGlobal(histBits),
		dir:       make([]bool, 1<<uint(filterBits)),
		run:       make([]uint8, 1<<uint(filterBits)),
		indexBits: indexBits,
		histBits:  histBits,
		filterMax: filterMax,
		idxMask:   1<<uint(indexBits) - 1,
		fltMask:   1<<uint(filterBits) - 1,
	}
}

// Name implements predictor.Predictor.
func (f *Filter) Name() string {
	return fmt.Sprintf("filter(%di,%dh,%df,max%d)", f.indexBits, f.histBits, bits.Len64(f.fltMask), f.filterMax)
}

//bimode:hotpath
func (f *Filter) index(pc uint64) int { return int(((pc >> 2) ^ f.ghr.Value()) & f.idxMask) }

func (f *Filter) fIndex(pc uint64) int { return int((pc >> 2) & f.fltMask) }

// filtered reports whether the branch is currently classified highly
// biased.
func (f *Filter) filtered(pc uint64) bool { return f.run[f.fIndex(pc)] >= f.filterMax }

// Predict implements predictor.Predictor.
func (f *Filter) Predict(pc uint64) bool {
	if fi := f.fIndex(pc); f.run[fi] >= f.filterMax {
		return f.dir[fi]
	}
	return f.pht.Taken(f.index(pc))
}

// Update implements predictor.Predictor.
func (f *Filter) Update(pc uint64, taken bool) {
	fi := f.fIndex(pc)
	wasFiltered := f.run[fi] >= f.filterMax

	// The PHT is consulted and trained only by unfiltered branches.
	if !wasFiltered {
		f.pht.Update(f.index(pc), taken)
	}

	// Track the direction run.
	if f.dir[fi] == taken {
		if f.run[fi] < f.filterMax {
			f.run[fi]++
		}
	} else {
		f.dir[fi] = taken
		f.run[fi] = 1
	}
	f.ghr.Push(taken)
}

// RunBatch implements predictor.BatchRunner: Predict+Update over the
// whole slice with the filter entries, the PHT and the history register
// in locals.
// Whether the branch is filtered is a bit, not a branch: it selects the
// prediction, and as the enable key of counter.SatNextIf it leaves a
// filtered branch's PHT counter as it was. The run counter climbs by
// that same bit while the direction holds and restarts at 1 when it
// flips.
//
//bimode:hotpath
func (f *Filter) RunBatch(recs []trace.Record) int {
	dir, run := f.dir, f.run
	pht := f.pht.Raw()
	if len(dir) == 0 || len(run) != len(dir) || len(pht) == 0 {
		return 0 // unreachable (equal, non-empty tables); lets the compiler drop bounds checks
	}
	fltMask := uint64(len(dir) - 1)
	idxMask := uint64(len(pht) - 1)
	fmax := f.filterMax
	h := f.ghr.Value()
	hMask := f.ghr.Mask()
	miss := 0
	for i := range recs {
		r := &recs[i]
		tk := counter.OutcomeBit(r.Taken)
		addr := r.PC >> 2
		fi := addr & fltMask
		d, n := counter.OutcomeBit(dir[fi]), run[fi]
		unfiltered := counter.OutcomeBit(n < fmax)
		pi := (addr ^ h) & idxMask
		v := pht[pi]
		pht[pi] = counter.SatNextIf(v, tk, unfiltered)
		pred := d ^ (d^v.TakenBit())&unfiltered
		miss += int(pred ^ tk)
		held := 0 - (d ^ tk ^ 1) // all ones while the direction holds
		run[fi] = (n+unfiltered)&held | 1&^held
		dir[fi] = r.Taken
		h = (h<<1 | uint64(tk)) & hMask
	}
	f.ghr.Set(h)
	return miss
}

// Reset implements predictor.Predictor.
func (f *Filter) Reset() {
	f.pht.Reset()
	for i := range f.dir {
		f.dir[i] = false
		f.run[i] = 0
	}
	f.ghr.Reset()
}

// CostBits implements predictor.Predictor: the PHT plus, per filter
// entry, the direction bit and the run counter (ceil(log2(filterMax+1))
// bits, conservatively 4).
func (f *Filter) CostBits() int {
	bitsPerEntry := 1 + 4
	return f.pht.CostBits() + len(f.dir)*bitsPerEntry
}
