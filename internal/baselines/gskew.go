package baselines

import (
	"fmt"

	"bimode/internal/counter"
	"bimode/internal/history"
	"bimode/internal/trace"
)

// Gskew implements the skewed branch predictor of Michaud, Seznec and
// Uhlig [MichaudSeznecUhlig97], the hardware-hashing de-aliasing scheme
// the paper compares against (Section 2.2: "hardware hashing is useful for
// small low cost systems; for large systems the bi-mode scheme is the best
// cost-effective scheme to date"). Three banks of two-bit counters are
// indexed by three different skewing functions of (address, history); the
// prediction is the majority vote. Two branches that collide in one bank
// almost never collide in the other two, so the vote outvotes the aliased
// bank.
//
// The skewing functions follow the paper's construction from the bijection
// H(y) = (y >> 1) ^ (lsb(y) * polyTap) and its inverse, applied to the two
// halves of the hashed value.
type Gskew struct {
	banks    [3]*counter.Table
	ghr      *history.Global
	bankBits int
	histBits int
	partial  bool
	bankMask uint64
}

// NewGskew returns a gskew predictor with three banks of 2^bankBits
// counters and histBits of global history hashed into the indices. When
// partial is true the enhanced-gskew partial update policy is used: on a
// correct prediction only the agreeing banks are strengthened, and on a
// misprediction all banks are retrained.
func NewGskew(bankBits, histBits int, partial bool) *Gskew {
	if bankBits < 2 || bankBits > 26 {
		panic(fmt.Sprintf("baselines: gskew bank width %d out of range [2,26]", bankBits))
	}
	if histBits < 0 || histBits > history.MaxGlobalBits {
		panic(fmt.Sprintf("baselines: gskew history width %d invalid", histBits))
	}
	g := &Gskew{
		ghr:      history.NewGlobal(histBits),
		bankBits: bankBits,
		histBits: histBits,
		partial:  partial,
		bankMask: 1<<uint(bankBits) - 1,
	}
	for i := range g.banks {
		g.banks[i] = counter.NewTwoBit(1<<uint(bankBits), counter.WeakTaken)
	}
	return g
}

// Name implements predictor.Predictor.
func (g *Gskew) Name() string {
	tag := "gskew"
	if g.partial {
		tag = "e-gskew"
	}
	return fmt.Sprintf("%s(3x%db,%dh)", tag, g.bankBits, g.histBits)
}

// shuffleH is the skewing bijection H over bankBits-wide values: a right
// shift whose incoming most-significant bit is lsb XOR msb of the input.
//
//bimode:hotpath
func (g *Gskew) shuffleH(y uint64) uint64 {
	n := uint(g.bankBits)
	msbOut := (y ^ y>>(n-1)) & 1
	return (y >> 1) | msbOut<<(n-1)
}

// shuffleHInv is the inverse bijection H^-1 (shuffleH(shuffleHInv(y)) ==
// y; asserted by a property test).
//
//bimode:hotpath
func (g *Gskew) shuffleHInv(y uint64) uint64 {
	n := uint(g.bankBits)
	lsbOut := (y>>(n-1) ^ y>>(n-2)) & 1
	return (y<<1 | lsbOut) & g.bankMask
}

// indices computes the three skewed bank indices for the current
// (address, history) pair. RunBatch computes the same indices with both
// halves in one word.
//
//bimode:hotpath
func (g *Gskew) indices(pc uint64) (f0, f1, f2 int) {
	v := (pc >> 2) ^ g.ghr.Value()<<uint(g.bankBits/2)
	v1 := v & g.bankMask
	v2 := (v >> uint(g.bankBits)) & g.bankMask
	shared := g.shuffleH(v1) ^ g.shuffleHInv(v2)
	return int(shared ^ v2), int(shared ^ v1), int(g.shuffleHInv(v1) ^ g.shuffleH(v2) ^ v2)
}

// Predict implements predictor.Predictor: the majority vote of the three
// banks.
func (g *Gskew) Predict(pc uint64) bool {
	i0, i1, i2 := g.indices(pc)
	t0, t1, t2 := g.banks[0].Taken(i0), g.banks[1].Taken(i1), g.banks[2].Taken(i2)
	return t0 && (t1 || t2) || t1 && t2
}

// Update implements predictor.Predictor. The e-gskew partial update needs
// the vote, which comes from the same three counter reads the per-bank
// agreement test uses.
func (g *Gskew) Update(pc uint64, taken bool) {
	i0, i1, i2 := g.indices(pc)
	idx := [3]int{i0, i1, i2}
	var agrees [3]bool
	votes := 0
	for b, i := range idx {
		agrees[b] = g.banks[b].Taken(i) == taken
		if agrees[b] {
			votes++
		}
	}
	correct := votes >= 2
	for b, i := range idx {
		if !g.partial || !correct || agrees[b] {
			g.banks[b].Update(i, taken)
		}
	}
	g.ghr.Push(taken)
}

// RunBatch implements predictor.BatchRunner: Predict+Update's transition
// over the whole slice with the three banks and the history register in
// locals, each bank counter read once per record.
//
// The indices are those of Gskew.indices, computed on both n-bit halves
// of the hashed value v at once: v holds them side by side (bits 0..n-1
// and n..2n-1, with n <= 26), so one shift of the word shifts both. A
// shift carries a bit across the boundary only into a half's top or
// bottom bit, the bit the bijection rewrites anyway. With w = v>>1 and
// d = v^w, hh is H of each half: w, whose top bit of a half is set to
// that half's lsb XOR msb (w's own bit there cancels against d's). ii is
// H^-1 of each half: v<<1, whose bottom bit of a half is set to the
// half's bit n-1 XOR bit n-2 (d's bit n-2 of the half). The shift counts
// are masked to 63, which they are already, so the compiler emits plain
// shifts.
//
// The vote is bit arithmetic on the three taken bits, and whether a bank
// trains is the enable key of counter.SatNextIf: under the partial policy
// a bank that disagreed with a correct vote is stored back unchanged
// rather than skipped by a branch on trace data.
//
//bimode:hotpath
func (g *Gskew) RunBatch(recs []trace.Record) int {
	b0, b1, b2 := g.banks[0].Raw(), g.banks[1].Raw(), g.banks[2].Raw()
	if len(b0) == 0 || len(b1) != len(b0) || len(b2) != len(b0) {
		return 0 // unreachable (equal, non-empty banks); lets the compiler drop bounds checks
	}
	mask := uint64(len(b0) - 1)
	n := uint(g.bankBits) & 63
	top, low, half := (n-1)&63, (n-2)&63, n/2
	tops := uint64(1)<<top | 1<<(top+n)
	lows := 1 | uint64(1)<<n
	total := counter.OutcomeBit(!g.partial)
	h := g.ghr.Value()
	hMask := g.ghr.Mask()
	miss := 0
	for i := range recs {
		r := &recs[i]
		tk := counter.OutcomeBit(r.Taken)
		v := r.PC>>2 ^ h<<half
		w := v >> 1
		d := v ^ w
		u := v << 1
		hh := w ^ (v<<top^d)&tops
		ii := u ^ (d>>low^u)&lows
		i0 := (hh ^ (ii^v)>>n) & mask
		i1 := (hh ^ ii>>n ^ v) & mask
		i2 := (ii ^ (hh^v)>>n) & mask
		v0, v1, v2 := b0[i0], b1[i1], b2[i2]
		t0, t1, t2 := v0.TakenBit(), v1.TakenBit(), v2.TakenBit()
		vote := t0&t1 | t0&t2 | t1&t2
		all := total | (vote ^ tk)
		b0[i0] = counter.SatNextIf(v0, tk, all|(t0^tk^1))
		b1[i1] = counter.SatNextIf(v1, tk, all|(t1^tk^1))
		b2[i2] = counter.SatNextIf(v2, tk, all|(t2^tk^1))
		miss += int(vote ^ tk)
		h = (h<<1 | uint64(tk)) & hMask
	}
	g.ghr.Set(h)
	return miss
}

// Reset implements predictor.Predictor.
func (g *Gskew) Reset() {
	for _, b := range g.banks {
		b.Reset()
	}
	g.ghr.Reset()
}

// CostBits implements predictor.Predictor.
func (g *Gskew) CostBits() int {
	total := 0
	for _, b := range g.banks {
		total += b.CostBits()
	}
	return total
}
