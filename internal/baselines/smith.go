package baselines

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Smith is the classic bimodal predictor [Smith81]: a table of two-bit
// saturating counters indexed by low branch-address bits. It is both a
// baseline in its own right and the building block the paper's choice
// predictor reuses.
type Smith struct {
	table   *counter.Table
	idxMask uint64
	bits    int
}

// NewSmith returns a Smith predictor with 2^indexBits two-bit counters
// initialized to weakly taken (the paper's initialization for all
// PC-indexed tables, footnote 2).
func NewSmith(indexBits int) *Smith {
	if indexBits < 0 || indexBits > 28 {
		panic(fmt.Sprintf("baselines: smith index width %d out of range [0,28]", indexBits))
	}
	return &Smith{
		table:   counter.NewTwoBit(1<<uint(indexBits), counter.WeakTaken),
		idxMask: 1<<uint(indexBits) - 1,
		bits:    indexBits,
	}
}

// Name implements predictor.Predictor.
func (s *Smith) Name() string { return fmt.Sprintf("smith(%da)", s.bits) }

//bimode:hotpath
func (s *Smith) index(pc uint64) int { return int((pc >> 2) & s.idxMask) }

// Predict implements predictor.Predictor.
func (s *Smith) Predict(pc uint64) bool { return s.table.Taken(s.index(pc)) }

// Update implements predictor.Predictor.
func (s *Smith) Update(pc uint64, taken bool) { s.table.Update(s.index(pc), taken) }

// RunBatch implements predictor.BatchRunner: the whole-trace loop over
// the raw counter array, branch-free per record (see counter.SatNext).
// The table is two-bit by construction (NewSmith), so the prediction is
// the counter's high bit and the LUT matches counter.Table.Update exactly.
//
//bimode:hotpath
func (s *Smith) RunBatch(recs []trace.Record) int {
	tab := s.table.Raw()
	if len(tab) == 0 {
		return 0 // unreachable; lets the compiler drop bounds checks
	}
	mask := uint64(len(tab) - 1)
	miss := 0
	for i := range recs {
		r := &recs[i]
		var tk uint8
		if r.Taken {
			tk = 1
		}
		idx := (r.PC >> 2) & mask
		v := tab[idx]
		miss += int(v.TakenBit() ^ tk)
		tab[idx] = counter.SatNext(v, tk)
	}
	return miss
}

// Reset implements predictor.Predictor.
func (s *Smith) Reset() { s.table.Reset() }

// CostBits implements predictor.Predictor.
func (s *Smith) CostBits() int { return s.table.CostBits() }

// NumCounters implements predictor.Probe.
func (s *Smith) NumCounters() int { return s.table.Len() }

// ProbeLookup implements predictor.Probe: one PC-indexed table, no banks,
// no steering structure.
func (s *Smith) ProbeLookup(pc uint64) predictor.Lookup {
	return predictor.Lookup{CounterID: s.index(pc), Bank: -1}
}
