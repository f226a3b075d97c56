package sim

// The differential gate for the observer's two-pass strips: a verbatim
// copy of the per-record body the strips replaced (observeBlock, the
// oracle) against Feed, for every Probe zoo spec on the 14 suite
// traces, fed whole to the oracle and cut at every shape a strip can
// take to the observer.

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"bimode/internal/counter"
	"bimode/internal/predictor"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// observeBlock is the instrumented per-record body, run over one block
// whose static ids the per-static arrays already cover.
func (o *oracleObserver) observeBlock(blk []trace.Record) {
	p, inter, lastWriter, choice := o.p, o.inter, o.lastWriter, o.choice
	var lookup func(pc uint64) predictor.Lookup
	if pr, ok := p.(predictor.Probe); ok {
		lookup = pr.ProbeLookup
	}
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

// oracleObserver gives the oracle the parallel per-static slices it was
// written against, around the observer whose other state it updates.
type oracleObserver struct {
	*Observer
	counts, takens, misses []int
	firstPC                []uint64
}

// perRecordFeed is the observer's Feed as it was before the strips: grow
// the per-static state, then run the per-record body — on the parallel
// slices, copied from and back to the observer's rows around it.
func (o *Observer) perRecordFeed(blk []trace.Record) {
	need := len(o.statics)
	for i := range blk {
		if s := int(blk[i].Static); s >= need {
			need = s + 1
		}
	}
	o.grow(need)
	ref := &oracleObserver{Observer: o}
	for _, st := range o.statics {
		ref.counts = append(ref.counts, st.count)
		ref.takens = append(ref.takens, st.taken)
		ref.misses = append(ref.misses, st.misses)
		ref.firstPC = append(ref.firstPC, st.firstPC)
	}
	ref.observeBlock(blk)
	for s := range o.statics {
		o.statics[s] = staticRow{count: ref.counts[s], taken: ref.takens[s], misses: ref.misses[s], firstPC: ref.firstPC[s]}
	}
}

// batchDynamic is the suite traces' length: past one 64Ki block, so the
// largest cut leaves a remainder.
const batchDynamic = 1<<16 + 4000

// scrambledRecords is a stream the suite traces never produce: each
// static id recurs under many PCs, some with the backward bit (63) set,
// so which PC a static keeps as its first is visible.
func scrambledRecords(n int) []trace.Record {
	rng := rand.New(rand.NewSource(7))
	recs := make([]trace.Record, n)
	for i := range recs {
		recs[i] = trace.Record{
			PC:     rng.Uint64()&(1<<63|0xfffc) | 0x400000,
			Static: uint32(rng.Intn(300)),
			Taken:  rng.Intn(3) > 0,
		}
	}
	return recs
}

// oddProbe is bi-mode behind a probe that withholds part of the lookup
// for some PCs — the counter, the bank or the choice — shapes a
// third-party predictor may report and the zoo never does. Embedding the
// interface hides bi-mode's kernel, so the generic fill runs.
type oddProbe struct{ predictor.Predictor }

func (p oddProbe) NumCounters() int { return p.Predictor.(predictor.Probe).NumCounters() }

func (p oddProbe) ProbeLookup(pc uint64) predictor.Lookup {
	look := p.Predictor.(predictor.Probe).ProbeLookup(pc)
	switch pc >> 2 % 5 {
	case 0:
		look.CounterID = -1
	case 1:
		look.Bank = -1
	case 2:
		look.HasChoice, look.ChoiceTaken = false, false
	}
	return look
}

// TestObserveBatchMatchesPerRecord: for every Probe zoo spec, the
// bi-mode ablation variants and oddProbe, on the 14 suite traces and a
// scrambled stream, Feed in chunks of 977, stripLen-1, stripLen,
// stripLen+1 and 64Ki records — and of 1 record, on the first suite
// trace and the scrambled one — reports exactly what the per-record
// oracle does over the whole trace, and snapshots to the same bytes.
func TestObserveBatchMatchesPerRecord(t *testing.T) {
	if testing.Short() {
		t.Skip("the full spec x suite grid")
	}
	var traces [][]trace.Record
	for _, p := range synth.Profiles() {
		traces = append(traces, trace.Materialize(synth.MustWorkload(p.WithDynamic(batchDynamic))).Records())
	}
	if len(traces) != 14 {
		t.Fatalf("expected the 14 suite workloads, got %d", len(traces))
	}
	traces = append(traces, scrambledRecords(batchDynamic))
	builds := map[string]func() predictor.Predictor{
		"odd-probe": func() predictor.Predictor { return oddProbe{zoo.MustNew("bimode:b=9")} },
	}
	for _, spec := range append(zoo.Known(), "bimode:b=8,fullchoice=1", "bimode:b=8,bothbanks=1", "bimode:c=6,b=8,h=5", "gshare:i=10,h=0") {
		if _, ok := zoo.MustNew(spec).(predictor.Probe); ok {
			builds[spec] = func() predictor.Predictor { return zoo.MustNew(spec) }
		}
	}
	cuts := []int{1, 977, stripLen - 1, stripLen, stripLen + 1, 1 << 16}
	for name, build := range builds {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			_, snapshots := build().(predictor.Snapshotter)
			for ti, recs := range traces {
				ref := NewObserver(build())
				ref.perRecordFeed(recs)
				want := ref.Report(10)
				var wantSnap []byte
				if snapshots {
					wantSnap = ref.Snapshot(nil)
				}
				for _, cut := range cuts {
					if cut == 1 && ti > 0 && ti < len(traces)-1 {
						continue // a Feed per record is slow: the first and the scrambled trace cover it
					}
					o := NewObserver(build())
					for pos := 0; pos < len(recs); pos += cut {
						o.Feed(recs[pos:min(pos+cut, len(recs))])
					}
					if got := o.Report(10); !reflect.DeepEqual(got, want) {
						t.Fatalf("trace %d, cut %d: report\n%+v\nwant\n%+v", ti, cut, got, want)
					}
					if snapshots && !bytes.Equal(o.Snapshot(nil), wantSnap) {
						t.Fatalf("trace %d, cut %d: snapshot differs from the oracle's", ti, cut)
					}
				}
			}
		})
	}
}
