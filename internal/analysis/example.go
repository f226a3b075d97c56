package analysis

import "sort"

// ExampleRow is one row of the paper's Table 3: one static branch's
// contribution to a particular counter.
type ExampleRow struct {
	// PC is the static branch address.
	PC uint64
	// Static is the static branch identifier.
	Static uint32
	// Count is |s(i,c)|, the substream length.
	Count int
	// Taken is the taken count within the substream.
	Taken int
	// Class is the substream's bias class.
	Class Class
	// Normalized is N(b,c) = |s(b,c)| / sum_i |s(i,c)|.
	Normalized float64
}

// CounterExample reproduces the paper's Table 3 for a real counter: the
// per-branch normalized counts at the most contended counter.
type CounterExample struct {
	// Counter is the chosen counter identifier.
	Counter int
	// Rows lists the contributing static branches, largest first.
	Rows []ExampleRow
	// DominantClass and DominantShare summarize the counter.
	DominantClass Class
	// DominantShare is the normalized count of the dominant class.
	DominantShare float64
	// WBShare is the normalized count of the WB class.
	WBShare float64
}

// FindExample selects the counter that best illustrates destructive
// aliasing — the one with the largest non-dominant dynamic count — and
// assembles its Table 3 rows, each branch named by the study's first PC
// for it. Returns ok=false if the study saw no branches.
func FindExample(s *Study) (CounterExample, bool) {
	best := -1
	bestND := -1
	for i, cb := range s.Counters {
		if nd := cb.NonDominant(); nd > bestND {
			bestND = nd
			best = i
		}
	}
	if best < 0 {
		return CounterExample{}, false
	}
	cb := s.Counters[best]
	ex := CounterExample{Counter: cb.Counter, DominantClass: cb.DominantClass()}
	total := 0
	for _, sub := range s.Substreams {
		if sub.Counter == cb.Counter {
			total += sub.Len
		}
	}
	for _, sub := range s.Substreams {
		if sub.Counter != cb.Counter {
			continue
		}
		ex.Rows = append(ex.Rows, ExampleRow{
			PC:         s.PCs[sub.Static],
			Static:     sub.Static,
			Count:      sub.Len,
			Taken:      sub.Taken,
			Class:      sub.Class(),
			Normalized: float64(sub.Len) / float64(total),
		})
	}
	sort.Slice(ex.Rows, func(i, j int) bool {
		if ex.Rows[i].Count != ex.Rows[j].Count {
			return ex.Rows[i].Count > ex.Rows[j].Count
		}
		return ex.Rows[i].Static < ex.Rows[j].Static
	})
	d, _, w := cb.Fractions()
	ex.DominantShare = d
	ex.WBShare = w
	return ex, true
}
