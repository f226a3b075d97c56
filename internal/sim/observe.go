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
// interference classification needs predictor.Probe, choice metrics a
// Probe with a steering structure; the H2P ranking and throughput need
// only the base interface.
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
	branches    int
	mispredicts int
	inter       *InterferenceMetrics
	lastWriter  []int32 // per counter: static id of its last writer, -1 = none
	choice      *ChoiceMetrics

	// Per-static state: one row of counts each, and the two-bit own-bias
	// shadow counter the aliasing classification is judged against.
	statics []staticRow
	shadow  []counter.State

	state []byte               // the predictor's snapshot, reused across Snapshot calls
	rows  []predictor.ProbeRow // one strip's rows, reused across Feed calls
}

// staticRow is one static branch's running counts: occurrences, taken
// outcomes, mispredictions, and the PC it first appeared at (0 until
// then). One row per static keeps everything a record updates in one
// place.
type staticRow struct {
	count, taken, misses int
	firstPC              uint64
}

// stripLen is how many records Feed fills and then accounts at a time:
// one strip's rows take 12 KB, allocated on the first Feed and reused,
// so the observer's memory does not grow with the block size.
const stripLen = 1024

// NewObserver returns an Observer for p with nothing fed yet. The
// interference and choice metrics need predictor.Probe.
func NewObserver(p predictor.Predictor) *Observer {
	o := &Observer{p: p}
	if pr, ok := p.(predictor.Probe); ok {
		o.inter = &InterferenceMetrics{Counters: pr.NumCounters()}
		o.lastWriter = make([]int32, pr.NumCounters())
		for i := range o.lastWriter {
			o.lastWriter[i] = -1
		}
		o.choice = &ChoiceMetrics{}
	}
	return o
}

// Branches returns the number of records fed so far.
func (o *Observer) Branches() int { return o.branches }

// grow extends the per-static arrays to cover n static ids.
func (o *Observer) grow(n int) {
	for len(o.statics) < n {
		o.statics = append(o.statics, staticRow{})
		o.shadow = append(o.shadow, counter.WeakTaken)
	}
}

// Feed runs one block of records through the predictor, collecting the
// metrics. A panic in the predictor propagates with the observer's
// counts covering the records before the failing one.
//
// The block goes through in strips of stripLen records, each in two
// passes: predictor.Fill, which steps the predictor and writes one row
// per record (the lookup before the update, and the miss), then account,
// the one accounting loop, over the strip's rows.
func (o *Observer) Feed(blk []trace.Record) {
	if o.rows == nil {
		o.rows = make([]predictor.ProbeRow, stripLen)
	}
	for len(blk) > 0 {
		strip := blk[:min(len(blk), stripLen)]
		rows := o.rows[:len(strip)]
		o.fill(strip, rows)
		o.account(strip, rows)
		blk = blk[len(strip):]
	}
}

// fill is predictor.Fill over one strip. When the predictor panics, it
// accounts the rows Fill wrote before the failing record, so the counts
// cover exactly the records before it, and lets the panic go on.
func (o *Observer) fill(recs []trace.Record, rows []predictor.ProbeRow) {
	filled := 0
	defer func() {
		if filled < len(recs) {
			o.account(recs[:filled], rows[:filled])
		}
	}()
	predictor.Fill(o.p, recs, rows, &filled)
}

// account folds one strip of filled rows into the metrics. It first
// grows the per-static state to the strip's largest static id and the
// bank-use list to every bank its choice rows select — the only
// allocations accounting makes, kept out of the loop — then runs
// accountRows.
func (o *Observer) account(recs []trace.Record, rows []predictor.ProbeRow) {
	need, banks := len(o.statics), 0
	for i := range recs {
		need = max(need, int(recs[i].Static)+1)
		banks = max(banks, int(rows[i].Bank+1)*b2i(rows[i].HasChoice))
	}
	o.grow(need)
	if m := o.choice; m != nil {
		for len(m.BankUse) < banks {
			m.BankUse = append(m.BankUse, 0)
		}
	}
	o.accountRows(recs, rows)
}

// errStripShape is accountRows' panic value for rows that do not cover
// the records, or a static id beyond the per-static arrays; Feed rules
// both out.
var errStripShape = errors.New("sim: observer strip does not match its rows or per-static arrays")

// The event code accountRows files each record under: one bit per fact
// the metrics are sums over. A strip's metrics are then sums of a
// 64-bin histogram, so the loop keeps one counter array, not one
// variable per metric.
const (
	evMiss      = 1 << iota // the prediction missed
	evShadow                // the static's own-bias shadow counter missed
	evCold                  // the counter had no writer yet
	evAliased               // the counter's last writer was another static
	evChoice                // the row carries a choice vote
	evVoteWrong             // the vote disagreed with the outcome
	evCodes     = 1 << iota
)

// accountRows is the observer's one accounting loop, over recs and their
// filled rows in record order. Per record it updates the static's row
// and shadow counter, classifies the counter access against the
// counter's last writer, counts the choice row's bank, and files the
// record in the event histogram; after the loop it folds the histogram
// into the metrics. No branch in the loop depends on an outcome or a
// prediction, data the host CPU's own predictor cannot learn: the
// first-occurrence test is taken once per static, and the guards on the
// counter id and the bank go one way for a whole predictor.
//
//bimode:hotpath
func (o *Observer) accountRows(recs []trace.Record, rows []predictor.ProbeRow) {
	statics, shadow := o.statics, o.shadow
	n := len(statics)
	if len(rows) < len(recs) || len(shadow) != n {
		panic(errStripShape)
	}
	lastWriter := o.lastWriter
	var bankUse []int
	if o.choice != nil {
		bankUse = o.choice.BankUse
	}
	var hist [evCodes]int32
	for i := range recs {
		rec := &recs[i]
		row := &rows[i]
		s := int(rec.Static)
		if s >= n {
			panic(errStripShape)
		}
		tk := counter.OutcomeBit(rec.Taken)
		miss := b2i(row.Miss)
		sh := shadow[s]
		shadow[s] = counter.SatNext(sh, tk)
		st := &statics[s]
		if st.count == 0 {
			st.firstPC = rec.PC &^ (1 << 63)
		}
		st.count++
		st.taken += int(tk)
		st.misses += miss

		code := miss*evMiss | int(sh.TakenBit()^tk)*evShadow
		if c := uint(row.CounterID); c < uint(len(lastWriter)) {
			w := lastWriter[c]
			cold := b2i(w < 0)
			code |= cold*evCold | (b2i(w != int32(s))^cold)*evAliased
			lastWriter[c] = int32(s)
		}
		has := b2i(row.HasChoice)
		code |= has*evChoice | has&(b2i(row.ChoiceTaken)^int(tk))*evVoteWrong
		hist[code&(evCodes-1)]++

		use := has & b2i(row.Bank >= 0)
		if b := uint(row.Bank) & -uint(use); b < uint(len(bankUse)) {
			bankUse[b] += use
		}
	}

	// The fold. An observer without interference or choice metrics folds
	// into a local it then drops.
	var noInter InterferenceMetrics
	var noChoice ChoiceMetrics
	inter, choice := o.inter, o.choice
	if inter == nil {
		inter = &noInter
	}
	if choice == nil {
		choice = &noChoice
	}
	for code, k := range hist {
		k := int(k)
		missed := code&evMiss != 0
		miss := k * (code & evMiss) // the bin's mispredictions
		o.mispredicts += miss
		switch {
		case code&evCold != 0:
			inter.Cold += k
			inter.ColdMispredicts += miss
		case code&evAliased != 0:
			inter.Aliased += k
			inter.AliasedMispredicts += miss
			switch code & (evMiss | evShadow) {
			case evMiss:
				inter.Destructive += k
			case evShadow:
				inter.Constructive += k
			default:
				inter.Neutral += k
			}
		}
		if code&evChoice != 0 {
			wrong := code&evVoteWrong != 0
			choice.Branches += k
			if !wrong {
				choice.AgreeOutcome += k
			}
			if wrong == missed { // the vote is the prediction
				choice.PredictionAgrees += k
			}
			if wrong && !missed {
				choice.PartialHold += k
			}
		}
	}
	o.branches += len(recs)
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// move, not a branch.
//
//bimode:hotpath
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
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
	for _, st := range o.statics {
		if st.count > 0 {
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
		rep.TopBranches, rep.TopShare = rankBranches(o.statics, o.mispredicts, topN)
	}
	return rep
}

// rankBranches builds the H2P top-N: static branches ordered by
// misprediction count (ties by static id for determinism). It selects
// the top topN with a bounded heap and sorts only those, so a report
// costs O(statics · log topN), not a sort of every static that missed.
func rankBranches(statics []staticRow, totalMiss, topN int) ([]BranchMetrics, float64) {
	h := &rankHeap{statics: statics}
	for s := range statics {
		switch {
		case statics[s].misses == 0:
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
		st := statics[s]
		covered += st.misses
		out = append(out, BranchMetrics{
			Static:      uint32(s),
			PC:          st.firstPC,
			Count:       st.count,
			Taken:       st.taken,
			Mispredicts: st.misses,
			MissRate:    float64(st.misses) / float64(st.count),
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
	ids     []int
	statics []staticRow
}

// ranksAbove reports whether static a ranks above static b: more
// mispredictions, or as many and a smaller id.
func (h *rankHeap) ranksAbove(a, b int) bool {
	if ma, mb := h.statics[a].misses, h.statics[b].misses; ma != mb {
		return ma > mb
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
	dst = binary.AppendUvarint(dst, uint64(len(o.statics)))
	for _, st := range o.statics {
		for _, v := range [...]uint64{uint64(st.count), uint64(st.taken), uint64(st.misses), st.firstPC} {
			dst = binary.AppendUvarint(dst, v)
		}
	}
	return counter.AppendStates(dst, 2, o.shadow)
}

// Restore replaces the observer's whole state with one captured by
// Snapshot from an observer over an identically configured predictor.
// Data that does not describe a state Feed can reach —
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
	o.statics, o.shadow = nil, nil
	o.grow(n)
	for s := range o.statics {
		st := &o.statics[s]
		st.count, st.taken, st.misses = int(next(math.MaxInt)), int(next(math.MaxInt)), int(next(math.MaxInt))
		st.firstPC = next(math.MaxInt64) // the backward bit is never stored
	}
	if err != nil {
		return err
	}
	if tail, err := counter.ReadStates(rest[len(rest)-r.Len():], 2, o.shadow); err != nil || len(tail) != 0 {
		return fmt.Errorf("shadow counters: %v, %d trailing bytes", err, len(tail))
	}
	return o.validate()
}

// validate checks that a restored state is one Feed could have
// produced: per-static rows within their occurrences and summing to
// the totals, the aliasing and choice classes within their populations,
// and every counter's writer a static seen so far.
func (o *Observer) validate() error {
	branches, misses := 0, 0
	for s, st := range o.statics {
		if st.taken > st.count || st.misses > st.count || st.count == 0 && (st.firstPC != 0 || o.shadow[s] != counter.WeakTaken) {
			return fmt.Errorf("static %d: impossible row", s)
		}
		branches += st.count
		misses += st.misses
	}
	ok := branches == o.branches && misses == o.mispredicts
	if m := o.inter; m != nil {
		ok = ok && m.Destructive+m.Constructive+m.Neutral == m.Aliased && m.Aliased+m.Cold <= o.branches &&
			m.AliasedMispredicts <= m.Aliased && m.ColdMispredicts <= m.Cold
		for _, w := range o.lastWriter {
			ok = ok && (w < 0 || int(w) < len(o.statics) && o.statics[w].count > 0)
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
