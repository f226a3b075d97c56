package analysis

import (
	"fmt"
	"slices"
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

	// Substreams holds every substream s(i,c) the run accessed, in order
	// of first appearance.
	Substreams []Substream
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

// stripLen is how many records RunStudy fills and then accounts at a
// time; one strip's rows take 16 KB.
const stripLen = 1024

// RunStudy performs the bias analysis of p, which must implement
// predictor.Probe, in one pass over src's blocks. A damaged block
// source ends the study with its decode error.
//
// Each block goes through in strips of stripLen records, each in two
// passes, as in sim.Observer.Feed: predictor.Fill, which steps the
// predictor and writes one row per record (its counter id and whether it
// missed), then account over the strip's rows.
func RunStudy(p predictor.Predictor, src trace.Source) (*Study, error) {
	pr, ok := p.(predictor.Probe)
	if !ok {
		return nil, fmt.Errorf("analysis: predictor %s does not expose counter indices", p.Name())
	}
	st := &Study{
		Predictor:   p.Name(),
		Workload:    src.Name(),
		NumCounters: pr.NumCounters(),
	}
	a := newAccounts(st)
	rows := make([]predictor.ProbeRow, stripLen)
	bs := trace.Blocks(src)
	for {
		blk, err := bs.NextBlock()
		if err != nil {
			return nil, fmt.Errorf("analysis: studying %s on %s: %w", st.Predictor, st.Workload, err)
		}
		if blk == nil {
			break
		}
		for len(blk) > 0 {
			strip := blk[:min(len(blk), stripLen)]
			r := rows[:len(strip)]
			var filled int
			predictor.Fill(p, strip, r, &filled)
			a.account(strip, r)
			blk = blk[len(strip):]
		}
	}
	a.finish(st)
	return st, nil
}

// accounts is the study's running state. Each substream accumulates in
// subs, with its mispredictions in miss, at the id table gives its
// (static, counter) key, so substreams are numbered in order of first
// appearance.
// last holds the substream that last accessed each counter (-1 before
// the first access), and switches logs, in stream order, every access
// whose substream differs from the last one at its counter: the accesses
// it drops repeat their predecessor's substream, hence its class, so the
// log keeps every bias-class change. firsts lists each static's first
// record, in order of first appearance, and seen has a bit per static id
// set once it is listed.
type accounts struct {
	subs     []Substream
	miss     []int
	table    trace.IDTable
	last     []int32
	switches []int32
	firsts   []trace.Record
	seen     []uint64
}

func newAccounts(st *Study) *accounts {
	a := &accounts{last: make([]int32, st.NumCounters)}
	for c := range a.last {
		a.last[c] = -1
	}
	return a
}

// account folds one strip of filled rows into the substreams. A record
// whose static last touched its counter is in the substream last names,
// so only the other accesses, the ones the switch log records, look their
// substream up in the table.
func (a *accounts) account(recs []trace.Record, rows []predictor.ProbeRow) {
	last := a.last
	for i := range recs {
		rec := &recs[i]
		cid := rows[i].CounterID
		s := last[cid]
		if s < 0 || a.subs[s].Static != rec.Static {
			s = a.substream(rec, int(cid))
			last[cid] = s
			a.switches = append(grown(a.switches), s)
		}
		sub := &a.subs[s]
		sub.Len++
		sub.Taken += b2i(rec.Taken)
		a.miss[s] += b2i(rows[i].Miss)
	}
}

// substream returns the number of rec's substream at counter cid,
// opening one when this is its first access.
func (a *accounts) substream(rec *trace.Record, cid int) int32 {
	s, fresh := a.table.ID(key(rec.Static, cid))
	if !fresh {
		return int32(s)
	}
	a.subs = append(grown(a.subs), Substream{Static: rec.Static, Counter: cid})
	a.miss = append(grown(a.miss), 0)
	if w := int(rec.Static >> 6); w >= len(a.seen) {
		a.seen = append(a.seen, make([]uint64, w+1-len(a.seen))...)
	}
	if bit := uint64(1) << (rec.Static & 63); a.seen[rec.Static>>6]&bit == 0 {
		a.seen[rec.Static>>6] |= bit
		a.firsts = append(a.firsts, *rec)
	}
	return int32(s)
}

// finish derives the study's results from the accumulated substreams.
func (a *accounts) finish(st *Study) {
	subs, last := a.subs, a.last
	st.Substreams = subs
	st.PCs = make(map[uint32]uint64, len(a.firsts))
	for _, rec := range a.firsts {
		st.PCs[rec.Static] = rec.PC &^ (1 << 63)
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
	// attribute the misses. tags packs each substream's place in Counters
	// with its class: all that the replay below reads of a substream.
	tags := make([]int32, len(subs))
	for i := range subs {
		sub := &subs[i]
		class := sub.Class()
		pos := last[sub.Counter]
		tags[i] = pos<<2 | int32(class)
		cb := &st.Counters[pos]
		cb.Total += sub.Len
		switch class {
		case ST:
			cb.STCount += sub.Len
		case SNT:
			cb.SNTCount += sub.Len
		default:
			cb.WBCount += sub.Len
		}
		st.Branches += sub.Len
		st.Mispredicts += a.miss[i]
		st.MissByClass[class] += a.miss[i]
	}

	// Replay the switch log per counter: each class change cuts off the
	// previous run. prev holds the class of each counter's current run
	// (noRun before the first).
	const noRun = Class(3)
	prev := make([]Class, touched)
	for pos := range prev {
		prev[pos] = noRun
	}
	for _, i := range a.switches {
		pos, class := tags[i]>>2, Class(tags[i]&3)
		if p := prev[pos]; p != noRun && p != class {
			st.Interruptions[categoryOf(p, st.Counters[pos].DominantClass())]++
		}
		prev[pos] = class
	}
}

// grown returns s with room for one more element, doubling its capacity
// when it is full: append alone grows a long slice by about a quarter at
// a time, copying it many more times over.
func grown[T any](s []T) []T {
	if len(s) < cap(s) {
		return s
	}
	return slices.Grow(s, len(s)+1)
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// key packs a (static, counter) pair into the table's key.
func key(static uint32, counter int) uint64 {
	return uint64(static)<<32 | uint64(uint32(counter))
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
