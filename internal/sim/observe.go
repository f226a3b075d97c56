package sim

import (
	"context"
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

// ObserveContext is Observe with cooperative cancellation: at every block
// boundary of trace.Blocks (at most 64Ki records apart, or one columnar
// block) the loop checks ctx and, if it is done, abandons the run and
// returns ctx's error instead of a report. A decode error from a damaged
// block source is returned the same way.
func ObserveContext(ctx context.Context, p predictor.Predictor, src trace.Source, opts ObserveOptions) (*Report, error) {
	rep := &Report{
		Predictor: p.Name(),
		Workload:  src.Name(),
		CostBytes: predictor.CostBytes(p),
	}
	topN := opts.TopN
	if topN == 0 {
		topN = 10
	}

	lookup := predictor.LookupOf(p)
	var inter *InterferenceMetrics
	var lastWriter []int32
	var choice *ChoiceMetrics
	if lookup != nil {
		if ix, ok := p.(predictor.Indexed); ok {
			inter = &InterferenceMetrics{Counters: ix.NumCounters()}
			lastWriter = make([]int32, ix.NumCounters())
			for i := range lastWriter {
				lastWriter[i] = -1
			}
		}
		if _, ok := p.(predictor.Probe); ok {
			choice = &ChoiceMetrics{}
		}
	}

	// Per-static state: occurrence/taken/miss counts, first-seen PC, and
	// the two-bit own-bias shadow counter the aliasing classification is
	// judged against.
	statics := src.StaticCount()
	if statics < 0 {
		statics = 0
	}
	counts := make([]int, statics)
	takens := make([]int, statics)
	misses := make([]int, statics)
	firstPC := make([]uint64, statics)
	shadow := make([]counter.State, statics)
	for i := range shadow {
		shadow[i] = counter.WeakTaken
	}

	o := &observeState{
		p: p, lookup: lookup, rep: rep, inter: inter, lastWriter: lastWriter, choice: choice,
		counts: counts, takens: takens, misses: misses, firstPC: firstPC, shadow: shadow,
	}
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
		o.observeBlock(blk)
	}
	rep.WallSeconds = now().Sub(start).Seconds()
	if rep.WallSeconds > 0 {
		rep.BranchesPerSec = float64(rep.Branches) / rep.WallSeconds
	}
	if rep.Branches > 0 {
		rep.MispredictRate = float64(rep.Mispredicts) / float64(rep.Branches)
	}
	for _, c := range counts {
		if c > 0 {
			rep.StaticBranches++
		}
	}
	rep.Interference = inter
	if choice != nil && choice.Branches > 0 {
		rep.Choice = choice
	}
	if topN > 0 {
		rep.TopBranches, rep.TopShare = rankBranches(counts, takens, misses, firstPC, rep.Mispredicts, topN)
	}

	observedRuns.Add(1)
	observedBranches.Add(int64(rep.Branches))
	observedMispredicts.Add(int64(rep.Mispredicts))
	return rep, nil
}

// observeState is the per-run state ObserveContext threads through its
// blocks; the slices and metric structs are shared with the caller.
type observeState struct {
	p          predictor.Predictor
	lookup     func(pc uint64) predictor.Lookup
	rep        *Report
	inter      *InterferenceMetrics
	lastWriter []int32
	choice     *ChoiceMetrics
	counts     []int
	takens     []int
	misses     []int
	firstPC    []uint64
	shadow     []counter.State
}

// observeBlock is the instrumented per-record body, run over one block.
func (o *observeState) observeBlock(blk []trace.Record) {
	p, lookup, rep, inter, lastWriter, choice := o.p, o.lookup, o.rep, o.inter, o.lastWriter, o.choice
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
			rep.Mispredicts++
		}
		rep.Branches++
	}
}

// rankBranches builds the H2P top-N: static branches ordered by
// misprediction count (ties by static id for determinism).
func rankBranches(counts, takens, misses []int, firstPC []uint64, totalMiss, topN int) ([]BranchMetrics, float64) {
	order := make([]int, 0, len(counts))
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
	if len(order) > topN {
		order = order[:topN]
	}
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
