package baselines

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/history"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// TwoLevel implements the Yeh/Patt two-level adaptive predictor taxonomy
// [YehPatt91, YehPatt92] for the four variants the paper discusses:
//
//	GAg - one global history register, one PHT indexed by history alone
//	GAs - one global history register, address bits select among PHTs
//	PAg - per-address history registers, one shared PHT
//	PAs - per-address history registers, address bits select among PHTs
//
// The second level holds 2^(histBits+setBits) counters organized as
// 2^setBits PHTs of 2^histBits counters; setBits == 0 gives the "g"
// (single-PHT) variants.
type TwoLevel struct {
	name     string
	perAddr  bool
	table    *counter.Table
	ghr      *history.Global     // nil when perAddr
	bht      *history.PerAddress // nil when !perAddr
	bhtBits  int                 // 0 when !perAddr
	histBits int
	setBits  int
	setMask  uint64
}

// NewGAg returns a GAg predictor with a histBits-deep global history.
func NewGAg(histBits int) *TwoLevel { return newGlobalTwoLevel("GAg", histBits, 0) }

// NewGAs returns a GAs predictor: histBits of global history and
// 2^setBits address-selected PHTs.
func NewGAs(histBits, setBits int) *TwoLevel { return newGlobalTwoLevel("GAs", histBits, setBits) }

// NewPAg returns a PAg predictor with 2^bhtBits per-address history
// registers of histBits each and a single shared PHT.
func NewPAg(bhtBits, histBits int) *TwoLevel { return newPerAddrTwoLevel("PAg", bhtBits, histBits, 0) }

// NewPAs returns a PAs predictor: per-address histories and 2^setBits
// address-selected PHTs.
func NewPAs(bhtBits, histBits, setBits int) *TwoLevel {
	return newPerAddrTwoLevel("PAs", bhtBits, histBits, setBits)
}

func newGlobalTwoLevel(name string, histBits, setBits int) *TwoLevel {
	checkTwoLevel(histBits, setBits)
	return &TwoLevel{
		name:     name,
		table:    counter.NewTwoBit(1<<uint(histBits+setBits), counter.WeakTaken),
		ghr:      history.NewGlobal(histBits),
		histBits: histBits,
		setBits:  setBits,
		setMask:  1<<uint(setBits) - 1,
	}
}

func newPerAddrTwoLevel(name string, bhtBits, histBits, setBits int) *TwoLevel {
	checkTwoLevel(histBits, setBits)
	return &TwoLevel{
		name:     name,
		perAddr:  true,
		table:    counter.NewTwoBit(1<<uint(histBits+setBits), counter.WeakTaken),
		bht:      history.NewPerAddress(bhtBits, histBits),
		bhtBits:  bhtBits,
		histBits: histBits,
		setBits:  setBits,
		setMask:  1<<uint(setBits) - 1,
	}
}

func checkTwoLevel(histBits, setBits int) {
	if histBits < 1 || setBits < 0 || histBits+setBits > 28 {
		panic(fmt.Sprintf("baselines: two-level widths (%dh,%ds) invalid", histBits, setBits))
	}
}

// Name implements predictor.Predictor. The per-address variants lead
// with the BHT width: PAg(10b,10h) has 2^10 history registers.
func (t *TwoLevel) Name() string {
	name := t.name + "("
	if t.perAddr {
		name += fmt.Sprintf("%db,", t.bhtBits)
	}
	if t.setBits == 0 {
		return name + fmt.Sprintf("%dh)", t.histBits)
	}
	return name + fmt.Sprintf("%dh,%ds)", t.histBits, t.setBits)
}

//bimode:hotpath
func (t *TwoLevel) pattern(pc uint64) uint64 {
	if t.perAddr {
		return t.bht.Value(pc)
	}
	return t.ghr.Value()
}

//bimode:hotpath
func (t *TwoLevel) index(pc uint64) int {
	set := (pc >> 2) & t.setMask
	return int(set<<uint(t.histBits) | t.pattern(pc))
}

// Predict implements predictor.Predictor.
func (t *TwoLevel) Predict(pc uint64) bool { return t.table.Taken(t.index(pc)) }

// Update implements predictor.Predictor.
func (t *TwoLevel) Update(pc uint64, taken bool) {
	t.table.Update(t.index(pc), taken)
	if t.perAddr {
		t.bht.Push(pc, taken)
	} else {
		t.ghr.Push(taken)
	}
}

// step is Predict and Update fused so the first-level pattern is read
// and the second-level index computed once per branch. It returns the
// prediction; runBatchPerAddr runs it per record.
//
//bimode:hotpath
func (t *TwoLevel) step(pc uint64, taken bool) bool {
	i := t.index(pc)
	pred := t.table.Taken(i)
	t.table.Update(i, taken)
	if t.perAddr {
		t.bht.Push(pc, taken)
	} else {
		t.ghr.Push(taken)
	}
	return pred
}

// RunBatch implements predictor.BatchRunner. The global-history variants
// (GAg/GAs) get the whole-trace loop with the PHT, the history register
// and the index masks in locals — the same branch-free shape as the
// gshare and fused bi-mode kernels, since a global two-level index is
// just set-bits concatenated with the history pattern. The per-address
// variants keep their first level inside history.PerAddress, so they run
// the fused step per record instead; their bottleneck is the BHT
// indirection, not dispatch.
//
//bimode:hotpath
func (t *TwoLevel) RunBatch(recs []trace.Record) int {
	if t.perAddr {
		return t.runBatchPerAddr(recs)
	}
	tab := t.table.Raw()
	if len(tab) == 0 {
		return 0 // unreachable (the PHT is non-empty); lets the compiler drop bounds checks
	}
	tabMask := uint64(len(tab) - 1)
	setMask := t.setMask
	shift := uint(t.histBits)
	h := t.ghr.Value()
	hMask := t.ghr.Mask()
	miss := 0
	for i := range recs {
		r := &recs[i]
		tk := counter.OutcomeBit(r.Taken)
		idx := (((r.PC>>2)&setMask)<<shift | h) & tabMask
		v := tab[idx]
		miss += int(v.TakenBit() ^ tk)
		tab[idx] = counter.SatNext(v, tk)
		h = (h<<1 | uint64(tk)) & hMask
	}
	t.ghr.Set(h)
	return miss
}

// runBatchPerAddr is RunBatch for the per-address-history variants
// (PAg/PAs): the fused step loop.
//
//bimode:hotpath
func (t *TwoLevel) runBatchPerAddr(recs []trace.Record) int {
	miss := 0
	for i := range recs {
		r := &recs[i]
		if t.step(r.PC, r.Taken) != r.Taken {
			miss++
		}
	}
	return miss
}

// Reset implements predictor.Predictor.
func (t *TwoLevel) Reset() {
	t.table.Reset()
	if t.perAddr {
		t.bht.Reset()
	} else {
		t.ghr.Reset()
	}
}

// CostBits implements predictor.Predictor. Per the paper's cost metric
// only second-level counters are charged; first-level history registers
// are free.
func (t *TwoLevel) CostBits() int { return t.table.CostBits() }

// NumCounters implements predictor.Probe.
func (t *TwoLevel) NumCounters() int { return t.table.Len() }

// ProbeLookup implements predictor.Probe: one table, no banks, no
// steering structure.
func (t *TwoLevel) ProbeLookup(pc uint64) predictor.Lookup {
	return predictor.Lookup{CounterID: t.index(pc), Bank: -1}
}
