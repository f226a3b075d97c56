package baselines

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/history"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Gshare is McFarling's gshare predictor [McFarling93] in the generalized
// parameterization the paper sweeps (Section 3.1):
//
// The second level holds 2^index two-bit counters. The low `hist` bits of
// the index come from XOR-ing the global history with low branch-address
// bits; the remaining index-hist bits come from the branch address alone
// and therefore partition the second level into 2^(index-hist) pattern
// history tables (PHTs). hist == index is the familiar single-PHT gshare;
// hist == 0 degenerates to a Smith predictor. The paper's "gshare.best" is
// the hist value that minimizes the suite-average misprediction at each
// size; sim.FindBestGshare performs that search.
type Gshare struct {
	table     *counter.Table
	ghr       *history.Global
	indexBits int
	histBits  int
	idxMask   uint64
}

// NewGshare returns a gshare predictor with 2^indexBits counters and a
// histBits-wide global history register. histBits must not exceed
// indexBits (the paper's m <= n constraint).
func NewGshare(indexBits, histBits int) *Gshare {
	if indexBits < 0 || indexBits > 28 {
		panic(fmt.Sprintf("baselines: gshare index width %d out of range [0,28]", indexBits))
	}
	if histBits < 0 || histBits > indexBits {
		panic(fmt.Sprintf("baselines: gshare history width %d out of range [0,%d]", histBits, indexBits))
	}
	return &Gshare{
		table:     counter.NewTwoBit(1<<uint(indexBits), counter.WeakTaken),
		ghr:       history.NewGlobal(histBits),
		indexBits: indexBits,
		histBits:  histBits,
		idxMask:   1<<uint(indexBits) - 1,
	}
}

// Name implements predictor.Predictor.
func (g *Gshare) Name() string {
	if g.histBits == g.indexBits {
		return fmt.Sprintf("gshare.1PHT(%d)", g.indexBits)
	}
	return fmt.Sprintf("gshare(%di,%dh)", g.indexBits, g.histBits)
}

// HistoryBits returns the global history length in use.
func (g *Gshare) HistoryBits() int { return g.histBits }

// IndexBits returns log2 of the second-level table size.
func (g *Gshare) IndexBits() int { return g.indexBits }

//bimode:hotpath
func (g *Gshare) index(pc uint64) int {
	return int(((pc >> 2) ^ g.ghr.Value()) & g.idxMask)
}

// Predict implements predictor.Predictor.
func (g *Gshare) Predict(pc uint64) bool { return g.table.Taken(g.index(pc)) }

// Update implements predictor.Predictor.
func (g *Gshare) Update(pc uint64, taken bool) {
	g.table.Update(g.index(pc), taken)
	g.ghr.Push(taken)
}

// gshareStep is the one gshare per-record transition the batched kernels
// share: it steps the counter at idx&mask and returns the mispredict bit.
// The mask is the table length minus one; the guard that checks it lets
// the prove pass drop the bounds check, and in a caller that computed the
// mask from the length it proves away too. The step goes
// through counter.SatNext, branch-free, because its condition is trace
// data the host CPU cannot predict. The table is two-bit by construction
// (NewGshare), so the prediction is the counter's high bit and the LUT
// matches counter.Table.Update exactly.
//
//bimode:hotpath
func gshareStep(tab []counter.State, mask, idx uint64, tk uint8) uint8 {
	if mask >= uint64(len(tab)) {
		return 0 // unreachable: the mask is the table length minus one
	}
	v := tab[idx&mask]
	tab[idx&mask] = counter.SatNext(v, tk)
	return v.TakenBit() ^ tk
}

// RunBatch implements predictor.BatchRunner: the whole-trace loop with
// the counter array and history register in locals, branch-free per
// record (gshareStep, inlined).
//
//bimode:hotpath
func (g *Gshare) RunBatch(recs []trace.Record) int {
	tab := g.table.Raw()
	if len(tab) == 0 {
		return 0 // unreachable; lets the compiler drop gshareStep's guard
	}
	idxMask := uint64(len(tab) - 1)
	h := g.ghr.Value()
	hMask := g.ghr.Mask()
	miss := 0
	for i := range recs {
		r := &recs[i]
		tk := counter.OutcomeBit(r.Taken)
		miss += int(gshareStep(tab, idxMask, (r.PC>>2)^h, tk))
		h = (h<<1 | uint64(tk)) & hMask
	}
	g.ghr.Set(h)
	return miss
}

// ProbeBatch implements predictor.ProbeBatcher: RunBatch's loop, the same
// gshareStep per record, that also writes each record's row — the
// counter, the PHT its address bits select, and the mispredict bit.
// Gshare has no steering structure, so no row carries a choice.
//
//bimode:hotpath
func (g *Gshare) ProbeBatch(recs []trace.Record, rows []predictor.ProbeRow) {
	if len(rows) < len(recs) {
		panic(predictor.ErrShortRows)
	}
	tab := g.table.Raw()
	if len(tab) == 0 {
		return // unreachable; lets the compiler drop bounds checks
	}
	idxMask := uint64(len(tab) - 1)
	phtShift := uint(g.histBits)
	h := g.ghr.Value()
	hMask := g.ghr.Mask()
	for i := range recs {
		r := &recs[i]
		tk := counter.OutcomeBit(r.Taken)
		idx := ((r.PC >> 2) ^ h) & idxMask
		miss := gshareStep(tab, idxMask, idx, tk)
		row := &rows[i]
		row.CounterID = int32(idx)
		row.Bank = int32(idx >> phtShift)
		row.ChoiceTaken = false
		row.HasChoice = false
		row.Miss = miss == 1
		h = (h<<1 | uint64(tk)) & hMask
	}
	g.ghr.Set(h)
}

// Reset implements predictor.Predictor.
func (g *Gshare) Reset() {
	g.table.Reset()
	g.ghr.Reset()
}

// CostBits implements predictor.Predictor.
func (g *Gshare) CostBits() int { return g.table.CostBits() }

// NumCounters implements predictor.Probe.
func (g *Gshare) NumCounters() int { return g.table.Len() }

// ProbeLookup implements predictor.Probe. The bank is the PHT the address
// bits select (always 0 for the single-PHT gshare); gshare has no steering
// structure, so no choice vote is reported.
func (g *Gshare) ProbeLookup(pc uint64) predictor.Lookup {
	i := g.index(pc)
	return predictor.Lookup{CounterID: i, Bank: i >> uint(g.histBits)}
}
