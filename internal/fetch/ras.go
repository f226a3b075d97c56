package fetch

import "fmt"

// RAS is a fixed-depth return address stack. On overflow the oldest entry
// is overwritten (circular), and on underflow Pop reports no prediction —
// the behaviors of real hardware stacks that make deep recursion
// mispredict its returns.
type RAS struct {
	entries []uint64
	top     int // index of the next push slot
	depth   int // live entries, capped at len(entries)
}

// NewRAS returns a stack with the given number of entries.
func NewRAS(size int) *RAS {
	if size < 1 || size > 1024 {
		panic(fmt.Sprintf("fetch: ras size %d out of range [1,1024]", size))
	}
	return &RAS{entries: make([]uint64, size)}
}

// Push records a return address (on a call).
func (r *RAS) Push(addr uint64) {
	r.entries[r.top] = addr
	r.top = (r.top + 1) % len(r.entries)
	if r.depth < len(r.entries) {
		r.depth++
	}
}

// Pop predicts the next return target. ok is false when the stack is
// empty (underflow: no prediction available).
func (r *RAS) Pop() (addr uint64, ok bool) {
	if r.depth == 0 {
		return 0, false
	}
	r.top = (r.top - 1 + len(r.entries)) % len(r.entries)
	r.depth--
	return r.entries[r.top], true
}

// Reset empties the stack.
func (r *RAS) Reset() {
	r.top, r.depth = 0, 0
}

// CostBits charges 32 bits per entry.
func (r *RAS) CostBits() int { return len(r.entries) * 32 }
