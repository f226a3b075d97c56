package trace

import (
	"math/bits"
	"slices"
)

// IDTable numbers uint64 keys densely, in the order they first appear:
// the first key gets id 0, the next new key id 1, and so on. That is the
// rule Record.Static follows for
// static branch sites. TextScanner numbers a capture's PCs with it, a
// prediction-service session its clients' PCs, and the Section 4 study
// its (static, counter) substreams.
//
// The table is open-addressed: a power-of-two array of 16-byte entries,
// each a key and its id plus one (so the zero entry is empty), indexed
// by a Fibonacci hash of the key with linear probing, and doubled
// whenever it is three quarters full. The zero value is an empty table
// ready to use.
type IDTable struct {
	ents  []idEntry
	shift uint     // 64 - log2(len(ents)): the hash keeps the product's top bits
	keys  []uint64 // id -> key
}

type idEntry struct {
	key uint64
	id  uint32 // the key's id + 1; 0 marks an empty entry
}

// minIDTableLen is the table's first size, 4 KB: the table grows with
// the keys it is given, not ahead of them.
const minIDTableLen = 256

// fibonacciMul is 2^64 divided by the golden ratio, the multiplier of
// Fibonacci hashing.
const fibonacciMul = 0x9e3779b97f4a7c15

// ID returns key's id, and whether key is new: a key the table has not
// seen gets the next id.
func (t *IDTable) ID(key uint64) (id uint32, fresh bool) {
	mask := uint64(len(t.ents) - 1)
	i := key * fibonacciMul >> t.shift
	// i is in range once the table has entries; the bound stops the
	// zero table's probe before it starts.
	for ; i < uint64(len(t.ents)) && t.ents[i].id != 0; i = (i + 1) & mask {
		if t.ents[i].key == key {
			return t.ents[i].id - 1, false
		}
	}
	return t.add(key, i), true
}

// add gives key, which the table does not hold, the next id, and puts
// it in entry i, the empty one its probe ended at; when that would fill
// the entries past three quarters, it doubles them instead. The keys
// double too: append alone grows a long slice by about a quarter at a
// time, copying it many more times over.
func (t *IDTable) add(key, i uint64) uint32 {
	id := uint32(len(t.keys))
	if len(t.keys) == cap(t.keys) {
		t.keys = slices.Grow(t.keys, len(t.keys)+1)
	}
	t.keys = append(t.keys, key)
	if 4*len(t.keys) > 3*len(t.ents) {
		t.rehash(max(2*len(t.ents), minIDTableLen))
	} else {
		t.ents[i] = idEntry{key: key, id: id + 1}
	}
	return id
}

// Keys returns the keys in id order: Keys()[id] is id's key. The slice
// is the table's own; callers must not modify it.
func (t *IDTable) Keys() []uint64 { return t.keys }

// Len returns the number of keys, which is also the next id.
func (t *IDTable) Len() int { return len(t.keys) }

// rehash replaces the entries with n empty ones, n a power of two, and
// enters every key again.
func (t *IDTable) rehash(n int) {
	t.ents = make([]idEntry, n)
	t.shift = uint(64 - bits.TrailingZeros(uint(n)))
	mask := uint64(n - 1)
	for id, key := range t.keys {
		i := key * fibonacciMul >> t.shift
		for t.ents[i].id != 0 {
			i = (i + 1) & mask
		}
		t.ents[i] = idEntry{key: key, id: uint32(id) + 1}
	}
}
