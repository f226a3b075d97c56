package sim

import (
	"bytes"
	"container/heap"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"bimode/internal/counter"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// now is the clock the instrumented tier stamps Report timing with.
// It is a package-level hook rather than a direct time.Now call for two
// reasons: golden tests replace it to zero WallSeconds without
// special-casing, and the function-value indirection keeps the wall-clock
// read out of detlint's static call graph — timing metadata is the one
// sanctioned nondeterminism in a Report, and it never influences the
// simulation results themselves.
var now = time.Now

// ObserveOptions parameterizes an instrumented run. The zero value uses
// the defaults.
type ObserveOptions struct {
	// TopN bounds the H2P ranking (default 10; negative disables it).
	TopN int
}

// Observe is the instrumented simulation tier: it drives p over src with
// the same Predict/Update semantics as Run — identical predictions,
// identical final predictor state — while collecting the per-run metrics
// of a Report. It is a separate entry point, not a mode of Run, so the
// uninstrumented fast paths stay untouched and pay nothing for the
// capability; the differential test in observe_test.go pins the
// equivalence.
//
// Metrics degrade gracefully with the predictor's capabilities:
// interference classification needs predictor.Indexed (directly or via
// predictor.Probe), choice metrics need predictor.Probe with a steering
// structure; the H2P ranking and throughput need only the base interface.
func Observe(p predictor.Predictor, src trace.Source, opts ObserveOptions) *Report {
	rep, err := ObserveContext(context.Background(), p, src, opts)
	if err != nil {
		// The background context never cancels, so this fires only for a
		// damaged block source — the same panic Run raises.
		panic(err)
	}
	return rep
}

// ObserveContext is Observe with cooperative cancellation: it is the
// block driver over one Observer. At every block boundary of
// trace.Blocks (at most 64Ki records apart, or one columnar block) the
// loop checks ctx and, if it is done, abandons the run and returns ctx's
// error instead of a report. A decode error from a damaged block source
// is returned the same way. It alone stamps the report's timing.
func ObserveContext(ctx context.Context, p predictor.Predictor, src trace.Source, opts ObserveOptions) (*Report, error) {
	topN := opts.TopN
	if topN == 0 {
		topN = 10
	}
	o := NewObserver(p)
	o.grow(src.StaticCount())
	bs := trace.Blocks(src)
	start := now()
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		blk, err := bs.NextBlock()
		if err != nil {
			return nil, err
		}
		if blk == nil {
			break
		}
		o.Feed(blk)
	}
	rep := o.Report(topN)
	rep.Workload, rep.WallSeconds = src.Name(), now().Sub(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.BranchesPerSec = float64(rep.Branches) / rep.WallSeconds
	}

	observedRuns.Add(1)
	observedBranches.Add(int64(rep.Branches))
	observedMispredicts.Add(int64(rep.Mispredicts))
	return rep, nil
}

// Observer is the incremental form of the instrumented tier: one
// predictor's Observe state, fed record blocks as they arrive, reported
// at any point, and snapshotted and restored whole. Observe drives one
// over a trace; a predserve session holds one per predictor spec and
// feeds it each request's records. Feeding a trace in any number of
// blocks yields the same Report as feeding it at once.
//
// Static ids index the per-static state directly, so they should be
// dense: the arrays grow to the largest id a block carries.
type Observer struct {
	p           predictor.Predictor
	lookup      func(pc uint64) predictor.Lookup
	branches    int
	mispredicts int
	inter       *InterferenceMetrics
	lastWriter  []int32 // per counter: static id of its last writer, -1 = none
	choice      *ChoiceMetrics

	// Per-static state: occurrence/taken/miss counts, first-seen PC, and
	// the two-bit own-bias shadow counter the aliasing classification is
	// judged against.
	counts  []int
	takens  []int
	misses  []int
	firstPC []uint64
	shadow  []counter.State

	state []byte // the predictor's snapshot, reused across Snapshot calls
}

// NewObserver returns an Observer for p with nothing fed yet. The
// interference metrics need predictor.Indexed (with Probe or its Indexed
// fallback for the lookup), the choice metrics predictor.Probe.
func NewObserver(p predictor.Predictor) *Observer {
	o := &Observer{p: p, lookup: predictor.LookupOf(p)}
	if o.lookup != nil {
		if ix, ok := p.(predictor.Indexed); ok {
			o.inter = &InterferenceMetrics{Counters: ix.NumCounters()}
			o.lastWriter = make([]int32, ix.NumCounters())
			for i := range o.lastWriter {
				o.lastWriter[i] = -1
			}
		}
		if _, ok := p.(predictor.Probe); ok {
			o.choice = &ChoiceMetrics{}
		}
	}
	return o
}

// Branches returns the number of records fed so far.
func (o *Observer) Branches() int { return o.branches }

// grow extends the per-static arrays to cover n static ids.
func (o *Observer) grow(n int) {
	for len(o.counts) < n {
		o.counts = append(o.counts, 0)
		o.takens = append(o.takens, 0)
		o.misses = append(o.misses, 0)
		o.firstPC = append(o.firstPC, 0)
		o.shadow = append(o.shadow, counter.WeakTaken)
	}
}

// Feed runs one block of records through the predictor, collecting the
// metrics. A panic in the predictor propagates with the observer's
// counts covering the records before the failing one.
func (o *Observer) Feed(blk []trace.Record) {
	need := len(o.counts)
	for i := range blk {
		if s := int(blk[i].Static); s >= need {
			need = s + 1
		}
	}
	o.grow(need)
	o.observeBlock(blk)
}

// observeBlock is the instrumented per-record body, run over one block
// whose static ids the per-static arrays already cover.
func (o *Observer) observeBlock(blk []trace.Record) {
	p, lookup, inter, lastWriter, choice := o.p, o.lookup, o.inter, o.lastWriter, o.choice
	counts, takens, misses, firstPC, shadow := o.counts, o.takens, o.misses, o.firstPC, o.shadow
	for _, rec := range blk {
		s := int(rec.Static)
		if counts[s] == 0 {
			firstPC[s] = rec.PC &^ (1 << 63)
		}

		var look predictor.Lookup
		if lookup != nil {
			look = lookup(rec.PC)
		}

		pred := p.Predict(rec.PC)
		miss := pred != rec.Taken
		shadowMiss := shadow[s].Taken2() != rec.Taken

		if inter != nil && look.CounterID >= 0 {
			writer := lastWriter[look.CounterID]
			switch {
			case writer < 0:
				inter.Cold++
				if miss {
					inter.ColdMispredicts++
				}
			case writer != int32(rec.Static):
				inter.Aliased++
				if miss {
					inter.AliasedMispredicts++
				}
				switch {
				case miss && !shadowMiss:
					inter.Destructive++
				case !miss && shadowMiss:
					inter.Constructive++
				default:
					inter.Neutral++
				}
			}
			lastWriter[look.CounterID] = int32(rec.Static)
		}
		if choice != nil && look.HasChoice {
			choice.Branches++
			if look.ChoiceTaken == rec.Taken {
				choice.AgreeOutcome++
			}
			if pred == look.ChoiceTaken {
				choice.PredictionAgrees++
			}
			if look.ChoiceTaken != rec.Taken && !miss {
				choice.PartialHold++
			}
			if look.Bank >= 0 {
				for len(choice.BankUse) <= look.Bank {
					choice.BankUse = append(choice.BankUse, 0)
				}
				choice.BankUse[look.Bank]++
			}
		}

		p.Update(rec.PC, rec.Taken)
		shadow[s] = counter.SatNext(shadow[s], counter.OutcomeBit(rec.Taken))

		counts[s]++
		if rec.Taken {
			takens[s]++
		}
		if miss {
			misses[s]++
			o.mispredicts++
		}
		o.branches++
	}
}

// Report summarizes everything fed so far, with the H2P ranking bounded
// to topN rows (none when topN <= 0). It carries no timing and no
// workload name, and shares no memory with the observer.
//
//bimode:deterministic
func (o *Observer) Report(topN int) *Report {
	rep := &Report{
		Predictor:   o.p.Name(),
		CostBytes:   predictor.CostBytes(o.p),
		Branches:    o.branches,
		Mispredicts: o.mispredicts,
	}
	if o.branches > 0 {
		rep.MispredictRate = float64(o.mispredicts) / float64(o.branches)
	}
	for _, c := range o.counts {
		if c > 0 {
			rep.StaticBranches++
		}
	}
	if o.inter != nil {
		m := *o.inter
		rep.Interference = &m
	}
	if o.choice != nil && o.choice.Branches > 0 {
		m := *o.choice
		m.BankUse = append([]int(nil), m.BankUse...)
		rep.Choice = &m
	}
	if topN > 0 {
		rep.TopBranches, rep.TopShare = rankBranches(o.counts, o.takens, o.misses, o.firstPC, o.mispredicts, topN)
	}
	return rep
}

// rankBranches builds the H2P top-N: static branches ordered by
// misprediction count (ties by static id for determinism). It selects
// the top topN with a bounded heap and sorts only those, so a report
// costs O(statics · log topN), not a sort of every static that missed.
func rankBranches(counts, takens, misses []int, firstPC []uint64, totalMiss, topN int) ([]BranchMetrics, float64) {
	h := &rankHeap{misses: misses}
	for s, m := range misses {
		switch {
		case m == 0:
		case len(h.ids) < topN:
			heap.Push(h, s)
		case h.ranksAbove(s, h.ids[0]):
			h.ids[0] = s
			heap.Fix(h, 0)
		}
	}
	order := h.ids
	sort.Slice(order, func(i, j int) bool { return h.ranksAbove(order[i], order[j]) })
	out := make([]BranchMetrics, 0, len(order))
	covered := 0
	for _, s := range order {
		covered += misses[s]
		out = append(out, BranchMetrics{
			Static:      uint32(s),
			PC:          firstPC[s],
			Count:       counts[s],
			Taken:       takens[s],
			Mispredicts: misses[s],
			MissRate:    float64(misses[s]) / float64(counts[s]),
		})
	}
	share := 0.0
	if totalMiss > 0 {
		share = float64(covered) / float64(totalMiss)
	}
	return out, share
}

// rankHeap holds the best static ids ranked so far, the lowest-ranked at
// the root, so one comparison decides whether a new static enters.
type rankHeap struct {
	ids    []int
	misses []int
}

// ranksAbove reports whether static a ranks above static b: more
// mispredictions, or as many and a smaller id.
func (h *rankHeap) ranksAbove(a, b int) bool {
	if h.misses[a] != h.misses[b] {
		return h.misses[a] > h.misses[b]
	}
	return a < b
}

func (h *rankHeap) Len() int           { return len(h.ids) }
func (h *rankHeap) Less(i, j int) bool { return h.ranksAbove(h.ids[j], h.ids[i]) }
func (h *rankHeap) Swap(i, j int)      { h.ids[i], h.ids[j] = h.ids[j], h.ids[i] }
func (h *rankHeap) Push(x any)         { h.ids = append(h.ids, x.(int)) }
func (h *rankHeap) Pop() any {
	x := h.ids[len(h.ids)-1]
	h.ids = h.ids[:len(h.ids)-1]
	return x
}

// The observer snapshot codec: the "OBS1" magic, the length-prefixed
// predictor.Snapshotter bytes, then uvarints — the scalar fields in
// fields() order, one last writer + 1 per counter (0 = none yet), the
// bank-use list, and the per-static rows (count, taken, misses, first
// PC) — and finally the shadow counters in the counter.AppendStates
// encoding. Writer ids are stored +1 so real traces' small ids take one
// or two bytes. The encoding is a pure function of the state.
const observerMagic = "OBS1"

// fields lists the observer's scalar state in codec order; the
// capability-dependent groups follow the predictor's capabilities, which
// a snapshot must share with the observer restoring it.
func (o *Observer) fields() []*int {
	f := []*int{&o.branches, &o.mispredicts}
	if m := o.inter; m != nil {
		f = append(f, &m.Aliased, &m.Destructive, &m.Constructive, &m.Neutral,
			&m.Cold, &m.AliasedMispredicts, &m.ColdMispredicts)
	}
	if m := o.choice; m != nil {
		f = append(f, &m.Branches, &m.AgreeOutcome, &m.PredictionAgrees, &m.PartialHold)
	}
	return f
}

// Snapshot appends the observer's complete state — predictor included —
// to dst. The predictor must be a predictor.Snapshotter.
//
//bimode:deterministic
func (o *Observer) Snapshot(dst []byte) []byte {
	o.state = o.p.(predictor.Snapshotter).Snapshot(o.state[:0])
	dst = append(dst, observerMagic...)
	dst = binary.AppendUvarint(dst, uint64(len(o.state)))
	dst = append(dst, o.state...)
	for _, f := range o.fields() {
		dst = binary.AppendUvarint(dst, uint64(*f))
	}
	for _, w := range o.lastWriter {
		dst = binary.AppendUvarint(dst, uint64(w+1))
	}
	if o.choice != nil {
		dst = binary.AppendUvarint(dst, uint64(len(o.choice.BankUse)))
		for _, u := range o.choice.BankUse {
			dst = binary.AppendUvarint(dst, uint64(u))
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(o.counts)))
	for s := range o.counts {
		for _, v := range [...]uint64{uint64(o.counts[s]), uint64(o.takens[s]), uint64(o.misses[s]), o.firstPC[s]} {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return counter.AppendStates(dst, 2, o.shadow)
}

// Restore replaces the observer's whole state with one captured by
// Snapshot from an observer over an identically configured predictor.
// Data that does not describe a state the per-record body can reach —
// wrong predictor shape, counts that do not add up, trailing bytes — is
// rejected; on error the observer's state is unspecified and it should
// be discarded.
func (o *Observer) Restore(data []byte) (err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("sim: restoring observer: %w", err)
		}
	}()
	snap, ok := o.p.(predictor.Snapshotter)
	if !ok {
		return fmt.Errorf("predictor %s does not support snapshots", o.p.Name())
	}
	rest, ok := bytes.CutPrefix(data, []byte(observerMagic))
	if !ok {
		return errors.New("bad magic")
	}
	r := bytes.NewReader(rest)
	// next reads one uvarint no larger than limit, latching the first
	// error. Element counts are limited by the bytes left, since every
	// element takes at least one.
	next := func(limit uint64) uint64 {
		v, e := binary.ReadUvarint(r)
		if e == nil && v > limit {
			e = fmt.Errorf("value %d out of range", v)
		}
		if err == nil {
			err = e
		}
		if err != nil {
			return 0
		}
		return v
	}
	state := make([]byte, next(uint64(r.Len())))
	r.Read(state) // cannot come up short: len(state) <= r.Len()
	if err != nil {
		return err
	}
	if err := snap.RestoreSnapshot(state); err != nil {
		return err
	}
	for _, f := range o.fields() {
		*f = int(next(math.MaxInt))
	}
	for i := range o.lastWriter {
		o.lastWriter[i] = int32(next(math.MaxInt32)) - 1
	}
	if o.choice != nil {
		o.choice.BankUse = make([]int, next(uint64(r.Len())))
		for i := range o.choice.BankUse {
			o.choice.BankUse[i] = int(next(math.MaxInt))
		}
	}
	n := int(next(uint64(r.Len())))
	o.counts, o.takens, o.misses, o.firstPC, o.shadow = nil, nil, nil, nil, nil
	o.grow(n)
	for s := 0; s < n; s++ {
		o.counts[s], o.takens[s], o.misses[s] = int(next(math.MaxInt)), int(next(math.MaxInt)), int(next(math.MaxInt))
		o.firstPC[s] = next(math.MaxInt64) // the backward bit is never stored
	}
	if err != nil {
		return err
	}
	if tail, err := counter.ReadStates(rest[len(rest)-r.Len():], 2, o.shadow); err != nil || len(tail) != 0 {
		return fmt.Errorf("shadow counters: %v, %d trailing bytes", err, len(tail))
	}
	return o.validate()
}

// validate checks that a restored state is one the per-record body could
// have produced: per-static rows within their occurrences and summing to
// the totals, the aliasing and choice classes within their populations,
// and every counter's writer a static seen so far.
func (o *Observer) validate() error {
	branches, misses := 0, 0
	for s, c := range o.counts {
		if o.takens[s] > c || o.misses[s] > c || c == 0 && (o.firstPC[s] != 0 || o.shadow[s] != counter.WeakTaken) {
			return fmt.Errorf("static %d: impossible row", s)
		}
		branches += c
		misses += o.misses[s]
	}
	ok := branches == o.branches && misses == o.mispredicts
	if m := o.inter; m != nil {
		ok = ok && m.Destructive+m.Constructive+m.Neutral == m.Aliased && m.Aliased+m.Cold <= o.branches &&
			m.AliasedMispredicts <= m.Aliased && m.ColdMispredicts <= m.Cold
		for _, w := range o.lastWriter {
			ok = ok && (w < 0 || int(w) < len(o.counts) && o.counts[w] > 0)
		}
	}
	if m := o.choice; m != nil {
		used := 0
		for _, u := range m.BankUse {
			used += u
		}
		ok = ok && m.Branches <= o.branches && max(m.AgreeOutcome, m.PredictionAgrees, m.PartialHold, used) <= m.Branches
	}
	if !ok {
		return errors.New("counts do not add up")
	}
	return nil
}
