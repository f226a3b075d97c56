package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// referenceStudy is RunStudy as it was before it became one pass over
// the trace's blocks, kept verbatim as the oracle the one-pass study must
// reproduce: pass 1 simulates one fresh predictor and accumulates the
// substreams, pass 2 re-simulates a second one and attributes
// mispredictions and interruptions. The static-to-PC map Table 3 used to
// build in a third pass of its own is filled in the same way it was.
func referenceStudy(mk func() predictor.Predictor, src trace.Source) (*Study, error) {
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

	// The static -> representative-PC pass Table 3 made.
	st.PCs = map[uint32]uint64{}
	stream = src.Stream()
	for {
		r, ok := stream.Next()
		if !ok {
			break
		}
		if _, seen := st.PCs[r.Static]; !seen {
			st.PCs[r.Static] = r.PC &^ (1 << 63)
		}
	}
	return st, nil
}

// columnarCopy re-encodes m as a columnar store cut into blockSize-record
// blocks, so a study of it crosses a block boundary every blockSize
// records.
func columnarCopy(t *testing.T, m *trace.Memory, blockSize int) *trace.Columnar {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteColumnarBlocks(&buf, m, blockSize); err != nil {
		t.Fatal(err)
	}
	c, err := trace.OpenColumnar(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestRunStudyMatchesReference: for every Indexed zoo spec, the one-pass
// study equals the two-pass reference exactly over the 14 suite
// workloads, over a Memory longer than one 65536-record block, and over
// a columnar copy cut into small blocks.
func TestRunStudyMatchesReference(t *testing.T) {
	traces := suiteTraces(t)
	long := trace.Materialize(synth.MustWorkload(synth.Profiles()[0].WithDynamic(70000)))
	srcs := []trace.Source{long, columnarCopy(t, traces[1], 97)}
	for _, mem := range traces {
		srcs = append(srcs, mem)
	}
	specs := 0
	for _, spec := range zoo.Known() {
		if _, ok := zoo.MustNew(spec).(predictor.Indexed); !ok {
			continue
		}
		specs++
		for _, src := range srcs {
			got, err := RunStudy(zoo.MustNew(spec), src)
			if err != nil {
				t.Fatalf("%s on %s: %v", spec, src.Name(), err)
			}
			want, err := referenceStudy(func() predictor.Predictor { return zoo.MustNew(spec) }, src)
			if err != nil {
				t.Fatalf("%s on %s: reference: %v", spec, src.Name(), err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s on %s: study differs from the two-pass reference:\n got %d/%d branches/mispredicts, %v by class, %v interruptions\nwant %d/%d, %v, %v",
					spec, src.Name(), got.Branches, got.Mispredicts, got.MissByClass, got.Interruptions,
					want.Branches, want.Mispredicts, want.MissByClass, want.Interruptions)
			}
		}
	}
	if specs == 0 {
		t.Fatal("no Indexed specs in the zoo")
	}
}

// TestStudyPCsFirstMasked: each static is named by its first PC with the
// backward-branch flag masked off, whatever PCs follow.
func TestStudyPCsFirstMasked(t *testing.T) {
	src := trace.NewMemory("pcs", 2, []trace.Record{
		{PC: 0x40 | 1<<63, Static: 0, Taken: true},
		{PC: 0x80, Static: 1},
		{PC: 0x44, Static: 0},
	})
	st, err := RunStudy(studyGshare(), src)
	if err != nil {
		t.Fatal(err)
	}
	if want := map[uint32]uint64{0: 0x40, 1: 0x80}; !reflect.DeepEqual(st.PCs, want) {
		t.Fatalf("PCs = %#v, want %#v", st.PCs, want)
	}
}

// failingBlocks is a block-only source whose second block fails to
// decode.
type failingBlocks struct{ recs []trace.Record }

var errBadBlock = errors.New("bad block")

func (f failingBlocks) Name() string         { return "failing" }
func (f failingBlocks) StaticCount() int     { return 3 }
func (f failingBlocks) Stream() trace.Stream { panic("the study must read blocks, not a stream") }
func (f failingBlocks) BlockStream() trace.BlockStream {
	return &failingIter{recs: f.recs}
}

type failingIter struct {
	recs  []trace.Record
	calls int
}

func (it *failingIter) NextBlock() ([]trace.Record, error) {
	it.calls++
	if it.calls == 1 {
		return it.recs, nil
	}
	return nil, &trace.ColumnarDecodeError{Block: 1, Err: errBadBlock}
}

// TestRunStudyReturnsBlockError: a block source that fails part-way ends
// the study with its typed decode error, not a panic.
func TestRunStudyReturnsBlockError(t *testing.T) {
	src := failingBlocks{recs: aliasedSource(10).(*trace.Memory).Records()}
	st, err := RunStudy(studyGshare(), src)
	if st != nil || err == nil {
		t.Fatalf("RunStudy = %v, %v; want the block error", st, err)
	}
	var de *trace.ColumnarDecodeError
	if !errors.As(err, &de) || !errors.Is(err, errBadBlock) {
		t.Fatalf("error %v does not carry the block's decode error", err)
	}
}
