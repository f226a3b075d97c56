package baselines

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Tournament is McFarling's combining predictor [McFarling93], the design
// the paper's introduction credits to the Alpha 21264: two component
// predictors run in parallel and a PC-indexed table of two-bit "meta"
// counters learns, per branch, which component to trust. Both components
// always train; the meta counter moves toward the component that was
// right when exactly one of them was.
type Tournament struct {
	meta    *counter.Table
	a, b    predictor.Predictor
	metaBit int
	mask    uint64
}

// NewTournament combines predictors a and b under a 2^metaBits-entry
// selector. Meta counters start weakly preferring b (the "global"
// component in the classic pairing). a and b must be distinct instances
// that share no state.
func NewTournament(metaBits int, a, b predictor.Predictor) *Tournament {
	if metaBits < 0 || metaBits > 28 {
		panic(fmt.Sprintf("baselines: tournament meta width %d out of range [0,28]", metaBits))
	}
	return &Tournament{
		meta:    counter.NewTwoBit(1<<uint(metaBits), counter.WeakTaken),
		a:       a,
		b:       b,
		metaBit: metaBits,
		mask:    1<<uint(metaBits) - 1,
	}
}

// Name implements predictor.Predictor.
func (t *Tournament) Name() string {
	return fmt.Sprintf("tournament(%s|%s,%dm)", t.a.Name(), t.b.Name(), t.metaBit)
}

func (t *Tournament) metaIndex(pc uint64) int { return int((pc >> 2) & t.mask) }

// Predict implements predictor.Predictor: meta counter in the "taken"
// half selects component b.
func (t *Tournament) Predict(pc uint64) bool {
	if t.meta.Taken(t.metaIndex(pc)) {
		return t.b.Predict(pc)
	}
	return t.a.Predict(pc)
}

// Update implements predictor.Predictor.
func (t *Tournament) Update(pc uint64, taken bool) {
	pa := t.a.Predict(pc)
	pb := t.b.Predict(pc)
	if pa != pb {
		// Move the meta counter toward the component that was right.
		t.meta.Update(t.metaIndex(pc), pb == taken)
	}
	t.a.Update(pc, taken)
	t.b.Update(pc, taken)
}

// RunBatch implements predictor.BatchRunner. The pairing
// NewAlpha21264Style builds, a per-address two-level component a and a
// global two-level component b, runs as one kernel (runLocalGlobal); any
// other pairing runs Predict then Update per record, the reference the
// kernel is checked against.
//
//bimode:hotpath dispatch
func (t *Tournament) RunBatch(recs []trace.Record) int {
	if local, ok := t.a.(*TwoLevel); ok && local.perAddr {
		if global, ok := t.b.(*TwoLevel); ok && !global.perAddr {
			return t.runLocalGlobal(local, global, recs)
		}
	}
	miss := 0
	for i := range recs {
		r := &recs[i]
		if t.Predict(r.PC) != r.Taken {
			miss++
		}
		t.Update(r.PC, r.Taken)
	}
	return miss
}

// runLocalGlobal is RunBatch for a per-address component a and a global
// component b: the meta table, both components' PHTs, a's history
// registers and b's history register in locals, and per record the
// transitions of Predict and Update with both components' TwoLevel.step
// inlined. The meta counter trains only when the components disagreed,
// which is the enable key of counter.SatNextIf, and its taken bit
// selects between the two predictions by masking.
//
//bimode:hotpath
func (t *Tournament) runLocalGlobal(a, b *TwoLevel, recs []trace.Record) int {
	meta := t.meta.Raw()
	regs := a.bht.Regs()
	at, bt := a.table.Raw(), b.table.Raw()
	if len(meta) == 0 || len(regs) == 0 || len(at) == 0 || len(bt) == 0 {
		return 0 // unreachable (all tables are non-empty); lets the compiler drop bounds checks
	}
	metaMask := uint64(len(meta) - 1)
	regMask := uint64(len(regs) - 1)
	atMask, btMask := uint64(len(at)-1), uint64(len(bt)-1)
	// The widths are at most 28; masking the shift counts to 63 lets the
	// compiler emit plain shifts.
	aSet, aShift := a.setMask, uint(a.histBits)&63
	bSet, bShift := b.setMask, uint(b.histBits)&63
	pMask := a.bht.Mask()
	h := b.ghr.Value()
	hMask := b.ghr.Mask()
	miss := 0
	for i := range recs {
		r := &recs[i]
		tk := counter.OutcomeBit(r.Taken)
		addr := r.PC >> 2
		mi := addr & metaMask
		m := meta[mi]
		ri := addr & regMask
		p := regs[ri]
		ai := ((addr&aSet)<<aShift | p) & atMask
		bi := ((addr&bSet)<<bShift | h) & btMask
		av, bv := at[ai], bt[bi]
		pa, pb := av.TakenBit(), bv.TakenBit()
		at[ai] = counter.SatNext(av, tk)
		bt[bi] = counter.SatNext(bv, tk)
		meta[mi] = counter.SatNextIf(m, pb^tk^1, pa^pb)
		miss += int(pa ^ (pa^pb)&m.TakenBit() ^ tk)
		regs[ri] = (p<<1 | uint64(tk)) & pMask
		h = (h<<1 | uint64(tk)) & hMask
	}
	b.ghr.Set(h)
	return miss
}

// Reset implements predictor.Predictor.
func (t *Tournament) Reset() {
	t.meta.Reset()
	t.a.Reset()
	t.b.Reset()
}

// CostBits implements predictor.Predictor.
func (t *Tournament) CostBits() int {
	return t.meta.CostBits() + t.a.CostBits() + t.b.CostBits()
}

// NewAlpha21264Style returns the classic pairing at a given scale: a
// per-address two-level component and a global-history component under a
// tournament selector, shaped like (a scaled-down) 21264 predictor.
func NewAlpha21264Style(scaleBits int) *Tournament {
	if scaleBits < 4 || scaleBits > 20 {
		panic(fmt.Sprintf("baselines: alpha scale %d out of range [4,20]", scaleBits))
	}
	local := NewPAs(scaleBits-2, scaleBits-2, 2)
	global := NewGAg(scaleBits)
	return NewTournament(scaleBits-1, local, global)
}
