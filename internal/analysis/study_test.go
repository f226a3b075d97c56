package analysis

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"

	"bimode/internal/baselines"
	"bimode/internal/core"
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
// build in a third pass of its own is filled in the same way it was. The
// one change is the Substreams container: pass 1 also lists the
// substreams in order of first appearance, and that list, not the map,
// is the result.
func referenceStudy(mk func() predictor.Predictor, src trace.Source) (*Study, error) {
	p1 := mk()
	ix1, ok := p1.(predictor.Probe)
	if !ok {
		return nil, fmt.Errorf("analysis: predictor %s does not expose counter indices", p1.Name())
	}
	st := &Study{
		Predictor:   p1.Name(),
		Workload:    src.Name(),
		NumCounters: ix1.NumCounters(),
	}
	substreams := map[uint64]*Substream{}
	var order []*Substream

	// Pass 1: accumulate substreams.
	stream := src.Stream()
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		cid := ix1.ProbeLookup(rec.PC).CounterID
		k := key(rec.Static, cid)
		sub := substreams[k]
		if sub == nil {
			sub = &Substream{Static: rec.Static, Counter: cid}
			substreams[k] = sub
			order = append(order, sub)
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
	for _, sub := range substreams {
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
	ix2 := p2.(predictor.Probe) // same concrete type as p1
	stream = src.Stream()
	for {
		rec, ok := stream.Next()
		if !ok {
			break
		}
		cid := ix2.ProbeLookup(rec.PC).CounterID
		sub := substreams[key(rec.Static, cid)]
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
	for _, sub := range order {
		st.Substreams = append(st.Substreams, *sub)
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

// TestRunStudyMatchesReference: for every Probe zoo spec, the one-pass
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
		if _, ok := zoo.MustNew(spec).(predictor.Probe); !ok {
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
		t.Fatal("no Probe specs in the zoo")
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

// checkStudy fails t unless RunStudy of mk() on src equals the two-pass
// reference.
func checkStudy(t *testing.T, mk func() predictor.Predictor, src trace.Source) {
	t.Helper()
	got, err := RunStudy(mk(), src)
	if err != nil {
		t.Fatalf("%s on %s: %v", mk().Name(), src.Name(), err)
	}
	want, err := referenceStudy(mk, src)
	if err != nil {
		t.Fatalf("%s on %s: reference: %v", mk().Name(), src.Name(), err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s on %s: study differs from the two-pass reference:\n got %d/%d branches/mispredicts, %d substreams, %v by class, %v interruptions\nwant %d/%d, %d, %v, %v",
			got.Predictor, src.Name(), got.Branches, got.Mispredicts, len(got.Substreams), got.MissByClass, got.Interruptions,
			want.Branches, want.Mispredicts, len(want.Substreams), want.MissByClass, want.Interruptions)
	}
}

// paperStudies builds the predictors the Section 4 artifacts study, at
// the matrix's sizes: gshare(8,2), gshare(8,8) and gshare(15,15), and
// bi-mode with 2^7 and 2^14 counters per bank.
func paperStudies() []func() predictor.Predictor {
	return []func() predictor.Predictor{
		func() predictor.Predictor { return baselines.NewGshare(8, 2) },
		func() predictor.Predictor { return baselines.NewGshare(8, 8) },
		func() predictor.Predictor { return baselines.NewGshare(15, 15) },
		func() predictor.Predictor { return core.MustNew(core.DefaultConfig(7)) },
		func() predictor.Predictor { return core.MustNew(core.DefaultConfig(14)) },
	}
}

// TestRunStudyPaperMatrix: the predictors of the Section 4 artifacts,
// which fill their strips with their ProbeBatch kernels, reproduce the
// two-pass reference on all 14 suite workloads.
func TestRunStudyPaperMatrix(t *testing.T) {
	traces := suiteTraces(t)
	for _, mk := range paperStudies() {
		if _, ok := mk().(predictor.ProbeBatcher); !ok {
			t.Fatalf("%s has no ProbeBatch kernel", mk().Name())
		}
		for _, mem := range traces {
			checkStudy(t, mk, mem)
		}
	}
}

// TestRunStudyGenericFill: predictors without a ProbeBatch kernel go
// through predictor.Fill's per-record fill — GAs, which reports no bank,
// smith and tri-mode — and reproduce the reference on the suite and
// across the block boundaries of a columnar copy.
func TestRunStudyGenericFill(t *testing.T) {
	traces := suiteTraces(t)
	srcs := []trace.Source{columnarCopy(t, traces[2], 97)}
	for _, mem := range traces {
		srcs = append(srcs, mem)
	}
	for _, spec := range []string{"gas:h=10,s=2", "smith:a=12", "trimode:b=10"} {
		mk := func() predictor.Predictor { return zoo.MustNew(spec) }
		if _, ok := mk().(predictor.ProbeBatcher); ok {
			t.Fatalf("%s has a ProbeBatch kernel; the test needs one without", spec)
		}
		for _, src := range srcs {
			checkStudy(t, mk, src)
		}
	}
}

// TestRunStudyTableGrowth: a trace with more than 2^16 substreams grows
// the substream table well past its first size, and the study still
// equals the reference.
func TestRunStudyTableGrowth(t *testing.T) {
	const statics = 70000
	recs := make([]trace.Record, 0, 2*statics)
	for pass := 0; pass < 2; pass++ {
		for s := uint32(0); s < statics; s++ {
			recs = append(recs, trace.Record{PC: uint64(s) << 2, Static: s, Taken: (s*2654435761>>7)&1 != 0})
		}
	}
	src := trace.NewMemory("many", statics, recs)
	st, err := RunStudy(baselines.NewGshare(12, 4), src)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Substreams) <= 1<<16 {
		t.Fatalf("%d substreams, want more than 2^16", len(st.Substreams))
	}
	checkStudy(t, func() predictor.Predictor { return baselines.NewGshare(12, 4) }, src)
}

// TestRunStudyDamagedColumnar: a columnar source whose second block
// passes its checksum but does not decode ends the study with the
// block's typed decode error.
func TestRunStudyDamagedColumnar(t *testing.T) {
	recs := append([]trace.Record(nil), suiteTraces(t)[0].Records()[:3000]...)
	// The writer is faithful, so a static id beyond the declared count
	// in block 1 (records 1024..2047) is written under an honest CRC and
	// refused only by the block decoder.
	recs[1500].Static = 1 << 20
	c := columnarCopy(t, trace.NewMemory("damaged", 1<<10, recs), 1024)
	st, err := RunStudy(studyGshare(), c)
	if st != nil || err == nil {
		t.Fatalf("RunStudy = %v, %v; want the decode error", st, err)
	}
	var de *trace.ColumnarDecodeError
	if !errors.As(err, &de) || de.Block != 1 {
		t.Fatalf("error %v is not a decode error for block 1", err)
	}
}

// BenchmarkRunStudy runs the 24 studies of one paper op — Figures 5-6
// and Tables 3-4 on gcc, Figures 7-8 on gcc and go — at the benchmark
// grid's 40 050 records per workload, and reports the time per studied
// record.
func BenchmarkRunStudy(b *testing.B) {
	wl := func(name string) *trace.Memory {
		prof, ok := synth.ProfileByName(name)
		if !ok {
			b.Fatalf("no workload %s", name)
		}
		return trace.Materialize(synth.MustWorkload(prof.WithDynamic(40050)))
	}
	gcc, goWl := wl("gcc"), wl("go")
	gshare := func(i, h int) func() predictor.Predictor {
		return func() predictor.Predictor { return baselines.NewGshare(i, h) }
	}
	bimode := func(b int) func() predictor.Predictor {
		return func() predictor.Predictor { return core.MustNew(core.DefaultConfig(b)) }
	}
	fig78 := []func() predictor.Predictor{
		gshare(8, 2), gshare(8, 8), bimode(7),
		gshare(10, 4), gshare(10, 10), bimode(9),
		gshare(15, 7), gshare(15, 15), bimode(14),
	}
	type study struct {
		mk  func() predictor.Predictor
		src *trace.Memory
	}
	var studies []study
	// Figure 5, Figure 6, Table 3, Table 4.
	for _, mk := range []func() predictor.Predictor{gshare(8, 8), gshare(8, 2), bimode(7), gshare(8, 8), gshare(8, 8), bimode(7)} {
		studies = append(studies, study{mk, gcc})
	}
	for _, src := range []*trace.Memory{gcc, goWl} {
		for _, mk := range fig78 {
			studies = append(studies, study{mk, src})
		}
	}
	records := 0
	for _, s := range studies {
		records += s.src.Len()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		for _, s := range studies {
			if _, err := RunStudy(s.mk(), s.src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}
