package trace

import (
	"math/rand/v2"
	"slices"
	"testing"
)

// homeSlot is key's first probe in t's current entries.
func (t *IDTable) homeSlot(key uint64) uint64 { return key * fibonacciMul >> t.shift }

// checkIDs gives every key of keys to t in order and checks each id
// against a map numbering the same keys in order of first appearance,
// then Keys and Len against that numbering.
func checkIDs(t *testing.T, tab *IDTable, keys []uint64) {
	t.Helper()
	want := map[uint64]uint32{}
	var order []uint64
	for i, k := range keys {
		w, seen := want[k]
		if !seen {
			w = uint32(len(want))
			want[k] = w
			order = append(order, k)
		}
		if id, fresh := tab.ID(k); id != w || fresh == seen {
			t.Fatalf("key %d (%#x): ID = %d, fresh %v; want %d, fresh %v", i, k, id, fresh, w, !seen)
		}
	}
	if tab.Len() != len(order) {
		t.Fatalf("Len = %d, want %d", tab.Len(), len(order))
	}
	if !slices.Equal(tab.Keys(), order) {
		t.Fatalf("Keys() is not the keys in order of first appearance")
	}
}

// TestIDTableFirstAppearance: ids are dense in the order keys first
// appear, a key seen again keeps its id, and Keys lists the keys in id
// order — zero and the largest key included.
func TestIDTableFirstAppearance(t *testing.T) {
	var tab IDTable
	if tab.Len() != 0 || len(tab.Keys()) != 0 {
		t.Fatalf("zero table: Len %d, %d keys", tab.Len(), len(tab.Keys()))
	}
	checkIDs(t, &tab, []uint64{0x40, 0, 0x40, ^uint64(0), 7, 0, 0x40, 1 << 63, 7})
	if want := []uint64{0x40, 0, ^uint64(0), 7, 1 << 63}; !slices.Equal(tab.Keys(), want) {
		t.Fatalf("Keys() = %#x, want %#x", tab.Keys(), want)
	}
}

// TestIDTableGrowth: the table doubles several times over random keys
// revisited at random, and every key keeps its id across each rehash.
func TestIDTableGrowth(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 5))
	distinct := make([]uint64, 20000)
	for i := range distinct {
		distinct[i] = rng.Uint64()
	}
	keys := make([]uint64, 0, 3*len(distinct))
	for i := range distinct {
		keys = append(keys, distinct[i], distinct[rng.IntN(i+1)], distinct[rng.IntN(i+1)])
	}
	var tab IDTable
	checkIDs(t, &tab, keys)
	if n := len(tab.ents); n < 64*minIDTableLen || 4*tab.Len() > 3*n {
		t.Fatalf("%d keys in %d entries: want several doublings past %d and at most three-quarters load",
			tab.Len(), n, minIDTableLen)
	}
	for id, k := range tab.Keys() {
		if got, fresh := tab.ID(k); got != uint32(id) || fresh {
			t.Fatalf("after growth: key %#x has id %d (fresh %v), want %d", k, got, fresh, id)
		}
	}
}

// TestIDTableSharedHomeSlot: keys that share one home slot take the
// slots after it in turn and each keeps its own id, also in a table that
// grows past them with the keys still sharing a home slot. 8-aligned
// keys, the PCs of every gcc-profile branch, are among them, and so are
// keys that differ from another only in their high 32 bits.
func TestIDTableSharedHomeSlot(t *testing.T) {
	var tab IDTable
	tab.rehash(minIDTableLen)
	home := tab.homeSlot(0x400000)
	shared := []uint64{0x400000}
	top := shared[0] * fibonacciMul >> 48
	for j := uint64(1); len(shared) < 40; j++ {
		// Equal top 16 bits keep the keys together in larger tables too.
		// The third kind differs from the first key in its high half
		// alone, as the study's (static, counter) keys at one counter do.
		k := 0x400000 + 8*j
		for _, p := range []uint64{k, k | 1<<63, j<<32 | 0x400000} {
			if p*fibonacciMul>>48 == top && len(shared) < 40 {
				shared = append(shared, p)
			}
		}
	}
	for _, k := range shared {
		if tab.homeSlot(k) != home {
			t.Fatalf("key %#x: home slot %d, want %d", k, tab.homeSlot(k), home)
		}
	}
	checkIDs(t, &tab, append(slices.Clone(shared), shared[20], shared[3], shared[39], shared[0]))
	for id, k := range shared {
		e := tab.ents[(home+uint64(id))%minIDTableLen]
		if e.key != k || e.id != uint32(id)+1 {
			t.Fatalf("slot home+%d holds key %#x, id+1 %d; want %#x, %d", id, e.key, e.id, k, id+1)
		}
	}
	keys := slices.Clone(shared)
	for i := uint64(0); i < 400; i++ {
		keys = append(keys, 0x500000+8*i, shared[i%40]) // neighbors grow the table
	}
	var grown IDTable
	checkIDs(t, &grown, keys)
}

// TestIDTableAlignedKeys: 8-aligned keys, the only PCs the gcc profile
// makes, reach odd home slots as well as even ones, and 4096 consecutive
// ones fill well over half of a 4096-entry table's home slots, which is
// all that the alignment bits alone would leave them.
func TestIDTableAlignedKeys(t *testing.T) {
	var tab IDTable
	tab.rehash(4096)
	used := map[uint64]bool{}
	odd := 0
	for i := range uint64(4096) {
		slot := tab.homeSlot(0x400000 + 8*i)
		if slot >= 4096 {
			t.Fatalf("slot %d out of range", slot)
		}
		if !used[slot] && slot%2 == 1 {
			odd++
		}
		used[slot] = true
	}
	if odd == 0 || len(used) <= 2048 {
		t.Fatalf("4096 8-aligned keys use %d home slots, %d of them odd; want odd slots and more than 2048",
			len(used), odd)
	}
}
