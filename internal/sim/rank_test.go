package sim

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// fullSortRanking is the H2P ranking by a sort of every static that
// missed: the ordering rankBranches' bounded selection must reproduce.
func fullSortRanking(misses []int, topN int) []uint32 {
	var order []int
	for s, m := range misses {
		if m > 0 {
			order = append(order, s)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if misses[a] != misses[b] {
			return misses[a] > misses[b]
		}
		return a < b
	})
	out := []uint32{}
	for _, s := range order[:min(topN, len(order))] {
		out = append(out, uint32(s))
	}
	return out
}

// TestRankBranchesMatchesFullSort: the bounded top-N selection ranks
// exactly as a full sort does — misses descending, then static id — over
// tie-heavy miss counts, and with topN below, at and above the number of
// statics that missed.
func TestRankBranchesMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(60)
		counts, takens, misses := make([]int, n), make([]int, n), make([]int, n)
		firstPC := make([]uint64, n)
		total := 0
		for s := range misses {
			misses[s] = rng.Intn(4) // few distinct values: many ties
			counts[s] = misses[s] + rng.Intn(5)
			takens[s] = rng.Intn(counts[s] + 1)
			firstPC[s] = uint64(0x1000 + 4*s)
			total += misses[s]
		}
		statics := make([]staticRow, n)
		for s := range statics {
			statics[s] = staticRow{count: counts[s], taken: takens[s], misses: misses[s], firstPC: firstPC[s]}
		}
		for _, topN := range []int{1, 2, 5, 10, n, n + 7, math.MaxInt} {
			if topN <= 0 {
				continue
			}
			rows, share := rankBranches(statics, total, topN)
			got := []uint32{}
			covered := 0
			for _, r := range rows {
				got = append(got, r.Static)
				covered += r.Mispredicts
				if r.Mispredicts != misses[r.Static] || r.Count != counts[r.Static] || r.PC != firstPC[r.Static] {
					t.Fatalf("trial %d: row %+v does not describe static %d", trial, r, r.Static)
				}
			}
			if want := fullSortRanking(misses, topN); !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, %d statics, topN %d:\n got %v\nwant %v\nmisses %v", trial, n, topN, got, want, misses)
			}
			if total > 0 && share != float64(covered)/float64(total) {
				t.Fatalf("trial %d: share %v, want %v", trial, share, float64(covered)/float64(total))
			}
		}
	}
}
