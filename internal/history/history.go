// Package history implements the branch-history structures used by
// two-level predictors: the global history register shared by GAg/GAs/
// gshare/bi-mode, and the per-address branch history table used by
// PAg/PAs.
package history

import "fmt"

// MaxGlobalBits is the widest supported global history register.
const MaxGlobalBits = 63

// Global is a global branch history register: a shift register holding the
// outcomes of the most recent conditional branches, most recent outcome in
// the least significant bit (1 = taken).
type Global struct {
	bits uint64
	mask uint64
	n    int
}

// NewGlobal returns a global history register of n bits (0..63). A zero-
// width register is legal and always reads as zero; it turns gshare into a
// plain PC-indexed table, which the paper's sweeps rely on.
func NewGlobal(n int) *Global {
	if n < 0 || n > MaxGlobalBits {
		panic(fmt.Sprintf("history: global width %d out of range [0,%d]", n, MaxGlobalBits))
	}
	var mask uint64
	if n > 0 {
		mask = 1<<uint(n) - 1
	}
	return &Global{mask: mask, n: n}
}

// Bits returns the register width.
//
//bimode:hotpath
func (g *Global) Bits() int { return g.n }

// Value returns the current history pattern.
//
//bimode:hotpath
func (g *Global) Value() uint64 { return g.bits }

// Mask returns the register's value mask, for kernels that keep the
// register in a local.
//
//bimode:hotpath
func (g *Global) Mask() uint64 { return g.mask }

// Push shifts a branch outcome into the register.
//
//bimode:hotpath
func (g *Global) Push(taken bool) {
	g.bits <<= 1
	if taken {
		g.bits |= 1
	}
	g.bits &= g.mask
}

// Set forces the register contents (masked to the register width); used to
// restore history after wrong-path recovery in pipeline models and by
// tests.
//
//bimode:hotpath
func (g *Global) Set(v uint64) { g.bits = v & g.mask }

// Reset clears the register.
func (g *Global) Reset() { g.bits = 0 }

// PerAddress is a table of per-branch history registers (the first level
// of PAg/PAs predictors). Entries are selected by low PC bits, so distinct
// branches may alias onto one register, exactly as in hardware.
type PerAddress struct {
	regs    []uint64
	mask    uint64
	idxMask uint64
	histLen int
}

// NewPerAddress returns a table of 2^indexBits history registers, each
// histBits wide.
func NewPerAddress(indexBits, histBits int) *PerAddress {
	if indexBits < 0 || indexBits > 30 {
		panic(fmt.Sprintf("history: per-address index width %d out of range [0,30]", indexBits))
	}
	if histBits < 1 || histBits > MaxGlobalBits {
		panic(fmt.Sprintf("history: per-address history width %d out of range [1,%d]", histBits, MaxGlobalBits))
	}
	return &PerAddress{
		regs:    make([]uint64, 1<<uint(indexBits)),
		mask:    1<<uint(histBits) - 1,
		idxMask: 1<<uint(indexBits) - 1,
		histLen: histBits,
	}
}

// Len returns the number of history registers.
func (p *PerAddress) Len() int { return len(p.regs) }

// Bits returns the width of each history register.
func (p *PerAddress) Bits() int { return p.histLen }

// Regs returns the history registers themselves, for kernels that step
// them in a local loop; a register is selected by (pc>>2)&(len-1) and
// holds at most Mask's bits.
//
//bimode:hotpath
func (p *PerAddress) Regs() []uint64 { return p.regs }

// Mask returns a register's value mask.
//
//bimode:hotpath
func (p *PerAddress) Mask() uint64 { return p.mask }

// index maps a branch PC to its history register. Branch instructions are
// word aligned, so the two low bits carry no information and are dropped.
//
//bimode:hotpath
func (p *PerAddress) index(pc uint64) uint64 { return (pc >> 2) & p.idxMask }

// Value returns the history pattern of the branch at pc.
//
// The register is selected by re-deriving the index mask from len(regs)
// (a power of two equal to idxMask+1 by construction) so the compiler's
// prove pass can drop the bounds check; p.idxMask stays the source of
// truth for index, which callers use to enumerate registers.
//
//bimode:hotpath
func (p *PerAddress) Value(pc uint64) uint64 {
	regs := p.regs
	if len(regs) == 0 {
		return 0 // unreachable: the constructor allocates at least one register
	}
	return regs[uint(pc>>2)&uint(len(regs)-1)]
}

// Push shifts an outcome into the history register of the branch at pc.
//
//bimode:hotpath
func (p *PerAddress) Push(pc uint64, taken bool) {
	regs := p.regs
	if len(regs) == 0 {
		return // unreachable: see Value
	}
	i := uint(pc>>2) & uint(len(regs)-1)
	v := regs[i] << 1
	if taken {
		v |= 1
	}
	regs[i] = v & p.mask
}

// Reset clears every history register.
func (p *PerAddress) Reset() {
	for i := range p.regs {
		p.regs[i] = 0
	}
}
