package analysis

import (
	"fmt"
	"sort"

	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Study is the result of the bias analysis of one predictor over one
// workload, made in one simulation pass.
//
// The pass accumulates every substream s(i,c) and each branch's
// prediction outcome. Substreams are classified over the whole run, as in
// the paper; once each class is known, every misprediction is attributed
// to a bias class (Figures 7-8) and bias-class interruptions are counted
// at each counter (Table 4).
type Study struct {
	// Predictor and Workload identify the run.
	Predictor string
	Workload  string
	// NumCounters is the predictor's second-level counter count.
	NumCounters int
	// Branches and Mispredicts summarize the pass; they equal a plain
	// simulation's counts (asserted in tests).
	Branches    int
	Mispredicts int

	// Substreams maps packed (static, counter) keys to accumulated
	// substreams.
	Substreams map[uint64]*Substream
	// Counters aggregates per-counter class counts (only counters that
	// were accessed appear).
	Counters []CounterBias
	// PCs maps each static branch to the PC of its first dynamic
	// instance, with the backward-branch flag (bit 63) masked off.
	PCs map[uint32]uint64

	// MissByClass counts mispredictions of branches whose substream is in
	// each class; index with Class values.
	MissByClass [3]int

	// Interruptions counts, per category relative to the counter's
	// dominant class, how many times a run of same-class accesses at a
	// counter was cut off by an access of a different class (the paper's
	// Table 4 "numbers of changes between bias classes"). Index 0 counts
	// interruptions of the dominant class, 1 of the non-dominant class,
	// 2 of the WB class.
	Interruptions [3]int
}

// Category indices for Study.Interruptions.
const (
	// CatDominant indexes interruptions of the counter's dominant class.
	CatDominant = 0
	// CatNonDominant indexes interruptions of the non-dominant class.
	CatNonDominant = 1
	// CatWB indexes interruptions of the weakly biased class.
	CatWB = 2
)

// MispredictRate returns the overall misprediction rate.
func (s *Study) MispredictRate() float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.Mispredicts) / float64(s.Branches)
}

// ClassRate returns the misprediction attributable to class c as a
// fraction of ALL branches, so the three class rates sum to the overall
// misprediction rate (the stacking in Figures 7-8).
func (s *Study) ClassRate(c Class) float64 {
	if s.Branches == 0 {
		return 0
	}
	return float64(s.MissByClass[c]) / float64(s.Branches)
}

func key(static uint32, counter int) uint64 {
	return uint64(static)<<32 | uint64(uint32(counter))
}

// RunStudy performs the bias analysis of p, which must implement
// predictor.Indexed, in one pass over src's blocks. A damaged block
// source ends the study with its decode error.
func RunStudy(p predictor.Predictor, src trace.Source) (*Study, error) {
	ix, ok := p.(predictor.Indexed)
	if !ok {
		return nil, fmt.Errorf("analysis: predictor %s does not expose counter indices", p.Name())
	}
	st := &Study{
		Predictor:   p.Name(),
		Workload:    src.Name(),
		NumCounters: ix.NumCounters(),
		PCs:         map[uint32]uint64{},
	}

	// Each substream accumulates in an acc, found through index and
	// numbered in order of first appearance (subs[a.idx] == a). last holds
	// the substream that last accessed each counter (-1 before the first
	// access), and switches logs, in stream order, every access whose
	// substream differs from the last one at its counter: the accesses it
	// drops repeat their predecessor's substream, hence its class, so the
	// log keeps every bias-class change.
	type acc struct {
		Substream
		miss int // mispredictions within the substream
		idx  int32
	}
	var (
		subs     []*acc
		switches []int32
		index    = map[uint64]*acc{}
		last     = make([]int32, st.NumCounters)
	)
	for c := range last {
		last[c] = -1
	}
	bs := trace.Blocks(src)
	for {
		blk, err := bs.NextBlock()
		if err != nil {
			return nil, fmt.Errorf("analysis: studying %s on %s: %w", st.Predictor, st.Workload, err)
		}
		if blk == nil {
			break
		}
		for _, rec := range blk {
			cid := ix.CounterID(rec.PC)
			k := key(rec.Static, cid)
			a := index[k]
			if a == nil {
				a = &acc{Substream: Substream{Static: rec.Static, Counter: cid}, idx: int32(len(subs))}
				index[k] = a
				subs = append(subs, a)
				if _, seen := st.PCs[rec.Static]; !seen {
					st.PCs[rec.Static] = rec.PC &^ (1 << 63)
				}
			}
			a.Len++
			if rec.Taken {
				a.Taken++
			}
			if p.Predict(rec.PC) != rec.Taken {
				a.miss++
			}
			p.Update(rec.PC, rec.Taken)
			if last[cid] != a.idx {
				last[cid] = a.idx
				switches = append(switches, a.idx)
			}
		}
	}

	// Number the touched counters in id order; last now maps each counter
	// to its place in Counters (-1: never accessed).
	touched := 0
	for c, l := range last {
		if l >= 0 {
			last[c] = int32(touched)
			touched++
		}
	}
	st.Counters = make([]CounterBias, touched)
	for c, pos := range last {
		if pos >= 0 {
			st.Counters[pos].Counter = c
		}
	}

	// Classify every substream once, then aggregate per counter and
	// attribute the misses.
	classes := make([]Class, len(subs))
	st.Substreams = make(map[uint64]*Substream, len(subs))
	for i := range subs {
		sub := &subs[i].Substream
		st.Substreams[key(sub.Static, sub.Counter)] = sub
		classes[i] = sub.Class()
		cb := &st.Counters[last[sub.Counter]]
		cb.Total += sub.Len
		switch classes[i] {
		case ST:
			cb.STCount += sub.Len
		case SNT:
			cb.SNTCount += sub.Len
		default:
			cb.WBCount += sub.Len
		}
		st.Branches += sub.Len
		st.Mispredicts += subs[i].miss
		st.MissByClass[classes[i]] += subs[i].miss
	}

	// Replay the switch log per counter: each class change cuts off the
	// previous run.
	prev := make([]int32, touched)
	for pos := range prev {
		prev[pos] = -1
	}
	for _, i := range switches {
		pos := last[subs[i].Counter]
		if p := prev[pos]; p >= 0 && classes[p] != classes[i] {
			st.Interruptions[categoryOf(classes[p], st.Counters[pos].DominantClass())]++
		}
		prev[pos] = i
	}
	return st, nil
}

// categoryOf maps a substream class to its Table 4 category relative to
// the counter's dominant class.
func categoryOf(c, dominant Class) int {
	switch {
	case c == WB:
		return CatWB
	case c == dominant:
		return CatDominant
	default:
		return CatNonDominant
	}
}

// AreaShares returns the dynamic-weighted shares of the dominant,
// non-dominant and WB regions over all counters — the "area sizes" the
// paper reads off Figures 5 and 6.
func (s *Study) AreaShares() (dominant, nonDominant, wb float64) {
	var d, nd, w, tot int
	for _, cb := range s.Counters {
		d += cb.Dominant()
		nd += cb.NonDominant()
		w += cb.WBCount
		tot += cb.Total
	}
	if tot == 0 {
		return 0, 0, 0
	}
	t := float64(tot)
	return float64(d) / t, float64(nd) / t, float64(w) / t
}

// SortedByWB returns the counters ordered by ascending WB fraction, the
// x-axis ordering of Figures 5 and 6.
func (s *Study) SortedByWB() []CounterBias {
	out := append([]CounterBias(nil), s.Counters...)
	sort.Slice(out, func(i, j int) bool {
		_, _, wi := out[i].Fractions()
		_, _, wj := out[j].Fractions()
		if wi != wj {
			return wi < wj
		}
		return out[i].Counter < out[j].Counter
	})
	return out
}
