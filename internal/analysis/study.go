package analysis

import (
	"fmt"
	"sort"

	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Study is the result of a two-pass bias analysis of one predictor over
// one workload.
//
// Pass 1 simulates the predictor and accumulates every substream s(i,c);
// substreams are then classified over the whole run, as in the paper.
// Pass 2 re-simulates a fresh predictor over the identical stream and,
// now knowing each substream's class, attributes every misprediction to a
// bias class (Figures 7-8) and counts bias-class interruptions at each
// counter (Table 4).
type Study struct {
	// Predictor and Workload identify the run.
	Predictor string
	Workload  string
	// NumCounters is the predictor's second-level counter count.
	NumCounters int
	// Branches and Mispredicts summarize pass 2 (identical to pass 1 by
	// determinism; asserted in tests).
	Branches    int
	Mispredicts int

	// Substreams maps packed (static, counter) keys to accumulated
	// substreams.
	Substreams map[uint64]*Substream
	// Counters aggregates per-counter class counts (only counters that
	// were accessed appear).
	Counters []CounterBias

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

// RunStudy performs the two-pass analysis. mk must construct identical
// fresh predictors implementing predictor.Indexed.
func RunStudy(mk func() predictor.Predictor, src trace.Source) (*Study, error) {
	p1 := mk()
	ix1, ok := p1.(predictor.Indexed)
	if !ok {
		return nil, fmt.Errorf("analysis: predictor %s does not expose counter indices", p1.Name())
	}
	st := &Study{
		Predictor:   p1.Name(),
		Workload:    src.Name(),
		NumCounters: ix1.NumCounters(),
		Substreams:  map[uint64]*Substream{},
	}

	// Pass 1: accumulate substreams.
	stream := src.Stream()
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		cid := ix1.CounterID(rec.PC)
		k := key(rec.Static, cid)
		sub := st.Substreams[k]
		if sub == nil {
			sub = &Substream{Static: rec.Static, Counter: cid}
			st.Substreams[k] = sub
		}
		sub.Len++
		if rec.Taken {
			sub.Taken++
		}
		p1.Predict(rec.PC) // keep speculative state protocol honest
		p1.Update(rec.PC, rec.Taken)
	}

	// Aggregate per-counter class counts and determine dominant classes.
	counterAgg := map[int]*CounterBias{}
	for _, sub := range st.Substreams {
		cb := counterAgg[sub.Counter]
		if cb == nil {
			cb = &CounterBias{Counter: sub.Counter}
			counterAgg[sub.Counter] = cb
		}
		cb.Total += sub.Len
		switch sub.Class() {
		case ST:
			cb.STCount += sub.Len
		case SNT:
			cb.SNTCount += sub.Len
		default:
			cb.WBCount += sub.Len
		}
	}
	st.Counters = make([]CounterBias, 0, len(counterAgg))
	for _, cb := range counterAgg {
		st.Counters = append(st.Counters, *cb)
	}
	sort.Slice(st.Counters, func(i, j int) bool { return st.Counters[i].Counter < st.Counters[j].Counter })

	// Per-counter pass-2 state, indexed by the dense counter id.
	dominantOf := make([]Class, st.NumCounters)
	for c, cb := range counterAgg {
		dominantOf[c] = cb.DominantClass()
	}
	lastClass := make([]Class, st.NumCounters)
	hasLast := make([]bool, st.NumCounters)

	// Pass 2: attribute mispredictions and count interruptions.
	p2 := mk()
	ix2 := p2.(predictor.Indexed) // same concrete type as p1
	stream = src.Stream()
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		cid := ix2.CounterID(rec.PC)
		sub := st.Substreams[key(rec.Static, cid)]
		cls := sub.Class()

		if hasLast[cid] && lastClass[cid] != cls {
			// The previous run of lastClass accesses was interrupted.
			st.Interruptions[categoryOf(lastClass[cid], dominantOf[cid])]++
		}
		lastClass[cid] = cls
		hasLast[cid] = true

		if p2.Predict(rec.PC) != rec.Taken {
			st.Mispredicts++
			st.MissByClass[cls]++
		}
		p2.Update(rec.PC, rec.Taken)
		st.Branches++
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
