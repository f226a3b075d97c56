package baselines

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/history"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Agree implements the agree predictor [Sprangle97], the de-aliasing rival
// the paper cites alongside bi-mode. Each static branch carries a biasing
// bit (here set to the branch's first observed outcome, the scheme the
// ISCA'97 paper evaluates); the gshare-indexed PHT counters then predict
// whether the branch will *agree* with its bias bit rather than whether it
// will be taken. Two oppositely biased branches that alias onto the same
// PHT counter now push it in the same ("agree") direction, converting
// destructive interference into neutral interference.
type Agree struct {
	pht      *counter.Table
	bias     []uint8 // 0 = unset, 1 = bias not-taken, 2 = bias taken
	ghr      *history.Global
	idxMask  uint64
	biasMask uint64
	indexBit int
	biasBit  int
	histBits int
}

// NewAgree returns an agree predictor with 2^indexBits PHT counters,
// histBits of global history XOR-ed into the index, and 2^biasBits
// bias-bit entries.
func NewAgree(indexBits, histBits, biasBits int) *Agree {
	if indexBits < 0 || indexBits > 28 || histBits < 0 || histBits > indexBits {
		panic(fmt.Sprintf("baselines: agree widths (%di,%dh) invalid", indexBits, histBits))
	}
	if biasBits < 0 || biasBits > 28 {
		panic(fmt.Sprintf("baselines: agree bias width %d invalid", biasBits))
	}
	return &Agree{
		// Counters predict "agree"; initialize to weakly agree.
		pht:      counter.NewTwoBit(1<<uint(indexBits), counter.WeakTaken),
		bias:     make([]uint8, 1<<uint(biasBits)),
		ghr:      history.NewGlobal(histBits),
		idxMask:  1<<uint(indexBits) - 1,
		biasMask: 1<<uint(biasBits) - 1,
		indexBit: indexBits,
		biasBit:  biasBits,
		histBits: histBits,
	}
}

// Name implements predictor.Predictor.
func (a *Agree) Name() string {
	return fmt.Sprintf("agree(%di,%dh,%db)", a.indexBit, a.histBits, a.biasBit)
}

//bimode:hotpath
func (a *Agree) index(pc uint64) int { return int(((pc >> 2) ^ a.ghr.Value()) & a.idxMask) }

func (a *Agree) biasIdx(pc uint64) int { return int((pc >> 2) & a.biasMask) }

// biasTaken returns the branch's bias direction; before the first update a
// branch is presumed biased taken (the common case for loops).
func (a *Agree) biasTaken(pc uint64) bool { return a.bias[a.biasIdx(pc)] != 1 }

// Predict implements predictor.Predictor.
func (a *Agree) Predict(pc uint64) bool {
	agree := a.pht.Taken(a.index(pc))
	return agree == a.biasTaken(pc)
}

// Update implements predictor.Predictor.
func (a *Agree) Update(pc uint64, taken bool) {
	bi := a.biasIdx(pc)
	if a.bias[bi] == 0 {
		// First encounter: latch the outcome as the bias bit.
		if taken {
			a.bias[bi] = 2
		} else {
			a.bias[bi] = 1
		}
	}
	agree := taken == a.biasTaken(pc)
	a.pht.Update(a.index(pc), agree)
	a.ghr.Push(taken)
}

// RunBatch implements predictor.BatchRunner: Predict+Update over the
// whole slice with the bias table, the PHT and the history register in
// locals. The prediction uses the bias bit as it stood before the branch;
// the first-encounter latch is bit arithmetic (an unset entry, 0, becomes
// 1 + outcome), and the PHT is a gshare table trained toward "agreed",
// so it steps through gshareStep. That returns the agree-miss bit; the
// branch mispredicted when it differs from whether the latch changed the
// bias direction the prediction used.
//
//bimode:hotpath
func (a *Agree) RunBatch(recs []trace.Record) int {
	bias := a.bias
	pht := a.pht.Raw()
	if len(bias) == 0 || len(pht) == 0 {
		return 0 // unreachable (both tables are non-empty); lets the compiler drop bounds checks
	}
	biasMask := uint64(len(bias) - 1)
	idxMask := uint64(len(pht) - 1)
	h := a.ghr.Value()
	hMask := a.ghr.Mask()
	miss := 0
	for i := range recs {
		r := &recs[i]
		tk := counter.OutcomeBit(r.Taken)
		addr := r.PC >> 2
		bi := addr & biasMask
		b := bias[bi]
		before := counter.OutcomeBit(b != 1)
		b |= counter.OutcomeBit(b == 0) << tk
		bias[bi] = b
		after := b >> 1
		miss += int(gshareStep(pht, idxMask, addr^h, 1^tk^after) ^ after ^ before)
		h = (h<<1 | uint64(tk)) & hMask
	}
	a.ghr.Set(h)
	return miss
}

// Reset implements predictor.Predictor.
func (a *Agree) Reset() {
	a.pht.Reset()
	for i := range a.bias {
		a.bias[i] = 0
	}
	a.ghr.Reset()
}

// CostBits implements predictor.Predictor: PHT counters plus one bias bit
// per entry (the valid bit is an artifact of the first-outcome latching
// policy and is charged too, as in the original paper's cost discussion).
func (a *Agree) CostBits() int { return a.pht.CostBits() + 2*len(a.bias) }

// NumCounters implements predictor.Probe.
func (a *Agree) NumCounters() int { return a.pht.Len() }

// ProbeLookup implements predictor.Probe. The bias bit is agree's steering
// structure: ChoiceTaken carries the branch's latched bias direction, the
// vote the PHT's agree/disagree counter is applied against.
func (a *Agree) ProbeLookup(pc uint64) predictor.Lookup {
	return predictor.Lookup{
		CounterID:   a.index(pc),
		Bank:        -1,
		ChoiceTaken: a.biasTaken(pc),
		HasChoice:   true,
	}
}
