package analysis

import (
	"testing"
	"testing/quick"

	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

func TestClassify(t *testing.T) {
	cases := []struct {
		taken, total int
		want         Class
	}{
		{90, 100, ST},
		{89, 100, WB},
		{10, 100, SNT},
		{11, 100, WB},
		{0, 0, WB},
		{5, 5, ST},
		{0, 5, SNT},
	}
	for _, c := range cases {
		if got := Classify(c.taken, c.total); got != c.want {
			t.Errorf("Classify(%d,%d) = %s, want %s", c.taken, c.total, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if ST.String() != "ST" || SNT.String() != "SNT" || WB.String() != "WB" {
		t.Fatalf("class names wrong")
	}
}

func TestCounterBias(t *testing.T) {
	cb := CounterBias{Counter: 3, Total: 100, STCount: 60, SNTCount: 30, WBCount: 10}
	if cb.Dominant() != 60 || cb.NonDominant() != 30 || cb.DominantClass() != ST {
		t.Fatalf("dominance wrong: %+v", cb)
	}
	d, nd, wb := cb.Fractions()
	if d != 0.6 || nd != 0.3 || wb != 0.1 {
		t.Fatalf("fractions wrong: %v %v %v", d, nd, wb)
	}
	var zero CounterBias
	if d, nd, wb := zero.Fractions(); d != 0 || nd != 0 || wb != 0 {
		t.Fatalf("zero counter fractions must be 0")
	}
}

// aliasedSource builds a stream with one always-taken branch, one
// always-not-taken branch, and one hash-random (weakly biased even given
// history) branch. Studied with a tiny 4-counter gshare, the three
// branches spread across every counter and collide constantly, so every
// bias class and plenty of interference appear.
func aliasedSource(n int) trace.Source {
	recs := make([]trace.Record, 0, 3*n)
	for i := 0; i < n; i++ {
		recs = append(recs, trace.Record{PC: 0x0, Static: 0, Taken: true})
		recs = append(recs, trace.Record{PC: 0x4, Static: 1, Taken: false})
		noise := uint32(i)*2654435761>>13&1 != 0
		recs = append(recs, trace.Record{PC: 0x8, Static: 2, Taken: noise})
	}
	return trace.NewMemory("aliased", 3, recs)
}

// studyGshare is the gshare configuration used by the crafted-stream
// studies: 4 counters, 2 history bits.
func studyGshare() predictor.Predictor { return baselines.NewGshare(2, 2) }

func TestRunStudyRequiresIndexed(t *testing.T) {
	_, err := RunStudy(baselines.NewStatic(baselines.AlwaysTaken), aliasedSource(10))
	if err == nil {
		t.Fatalf("a predictor that is not a Probe must be rejected")
	}
}

func TestRunStudySubstreams(t *testing.T) {
	st, err := RunStudy(studyGshare(), aliasedSource(500))
	if err != nil {
		t.Fatal(err)
	}
	if st.Branches != 1500 {
		t.Fatalf("branches = %d", st.Branches)
	}
	// Substream counts must partition the stream.
	total := 0
	classSeen := map[Class]bool{}
	for _, sub := range st.Substreams {
		total += sub.Len
		classSeen[sub.Class()] = true
	}
	if total != 1500 {
		t.Fatalf("substreams cover %d branches, want 1500", total)
	}
	for _, c := range []Class{ST, SNT, WB} {
		if !classSeen[c] {
			t.Errorf("class %s missing from substreams", c)
		}
	}
	// Counter aggregation must cover the same accesses.
	ctot := 0
	for _, cb := range st.Counters {
		ctot += cb.Total
	}
	if ctot != 1500 {
		t.Fatalf("counters cover %d accesses", ctot)
	}
	// Class misprediction attribution must sum to the total.
	if st.MissByClass[WB]+st.MissByClass[ST]+st.MissByClass[SNT] != st.Mispredicts {
		t.Fatalf("class attribution does not sum: %v vs %d", st.MissByClass, st.Mispredicts)
	}
	if st.ClassRate(WB)+st.ClassRate(ST)+st.ClassRate(SNT)-st.MispredictRate() > 1e-12 {
		t.Fatalf("class rates must sum to the overall rate")
	}
}

// TestStudyMatchesPlainSimulation: the study's branch and misprediction
// counts are the observer's, for every Probe zoo spec over the crafted
// stream and the suite, so the misprediction count has one definition.
func TestStudyMatchesPlainSimulation(t *testing.T) {
	srcs := []trace.Source{aliasedSource(300)}
	for _, mem := range suiteTraces(t) {
		srcs = append(srcs, mem)
	}
	specs := 0
	for _, spec := range zoo.Known() {
		if _, ok := zoo.MustNew(spec).(predictor.Probe); !ok {
			continue
		}
		specs++
		for _, src := range srcs {
			st, err := RunStudy(zoo.MustNew(spec), src)
			if err != nil {
				t.Fatalf("%s on %s: %v", spec, src.Name(), err)
			}
			rep := sim.Observe(zoo.MustNew(spec), src, sim.ObserveOptions{TopN: -1})
			if st.Branches != rep.Branches || st.Mispredicts != rep.Mispredicts {
				t.Errorf("%s on %s: study %d/%d branches/mispredicts, observer %d/%d",
					spec, src.Name(), st.Branches, st.Mispredicts, rep.Branches, rep.Mispredicts)
			}
		}
	}
	if specs == 0 {
		t.Fatal("no Probe specs in the zoo")
	}
}

func TestAreaSharesSumToOne(t *testing.T) {
	st, err := RunStudy(baselines.NewGshare(6, 6), aliasedSource(400))
	if err != nil {
		t.Fatal(err)
	}
	d, nd, wb := st.AreaShares()
	if sum := d + nd + wb; sum < 0.999 || sum > 1.001 {
		t.Fatalf("area shares sum to %v", sum)
	}
}

func TestSortedByWB(t *testing.T) {
	st, err := RunStudy(baselines.NewGshare(6, 6), aliasedSource(400))
	if err != nil {
		t.Fatal(err)
	}
	sorted := st.SortedByWB()
	if len(sorted) != len(st.Counters) {
		t.Fatalf("sort must preserve length")
	}
	for i := 1; i < len(sorted); i++ {
		_, _, w0 := sorted[i-1].Fractions()
		_, _, w1 := sorted[i].Fractions()
		if w0 > w1 {
			t.Fatalf("not sorted by WB fraction at %d", i)
		}
	}
}

func TestInterruptionsOnCraftedStream(t *testing.T) {
	// One counter (smith, 1-entry table) receiving substreams of known
	// classes: static 0 always taken (ST, dominant), static 1 always
	// not-taken (SNT, non-dominant). Sequence 0,0,1,0 has: run(0) cut by
	// 1 (dominant interrupted), run(1) cut by 0 (non-dominant
	// interrupted).
	recs := []trace.Record{
		{PC: 0, Static: 0, Taken: true},
		{PC: 4, Static: 0, Taken: true}, // same counter in a 1-entry table
		{PC: 0, Static: 1, Taken: false},
		{PC: 4, Static: 0, Taken: true},
	}
	// Make static 0 dominant by count (3 vs 1).
	src := trace.NewMemory("crafted", 2, recs)
	st, err := RunStudy(baselines.NewSmith(0), src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Interruptions[CatDominant] != 1 || st.Interruptions[CatNonDominant] != 1 || st.Interruptions[CatWB] != 0 {
		t.Fatalf("interruptions = %v, want [1 1 0]", st.Interruptions)
	}
}

func TestBiModeDeAliasingVisibleInStudy(t *testing.T) {
	// The paper's Table 4 claim: bi-mode shows fewer interruptions and a
	// larger dominant area than the history-indexed gshare on an
	// aliasing-heavy stream.
	src := aliasedSource(500)
	gs, err := RunStudy(studyGshare(), src)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := RunStudy(core.MustNew(core.Config{ChoiceBits: 8, BankBits: 2, HistoryBits: 2}), src)
	if err != nil {
		t.Fatal(err)
	}
	gsTotal := gs.Interruptions[0] + gs.Interruptions[1] + gs.Interruptions[2]
	bmTotal := bm.Interruptions[0] + bm.Interruptions[1] + bm.Interruptions[2]
	if bmTotal >= gsTotal {
		t.Fatalf("bi-mode interruptions %d should be below gshare's %d", bmTotal, gsTotal)
	}
	_, gsND, _ := gs.AreaShares()
	_, bmND, _ := bm.AreaShares()
	if bmND >= gsND {
		t.Fatalf("bi-mode non-dominant share %v should be below gshare's %v", bmND, gsND)
	}
}

func TestFindExample(t *testing.T) {
	src := aliasedSource(300)
	st, err := RunStudy(studyGshare(), src)
	if err != nil {
		t.Fatal(err)
	}
	ex, ok := FindExample(st)
	if !ok {
		t.Fatalf("example must exist")
	}
	if len(ex.Rows) == 0 {
		t.Fatalf("example must have rows")
	}
	sum := 0.0
	for i, r := range ex.Rows {
		sum += r.Normalized
		if i > 0 && ex.Rows[i-1].Count < r.Count {
			t.Fatalf("rows must be sorted by count descending")
		}
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("normalized counts sum to %v", sum)
	}
	// The chosen counter should exhibit real aliasing: both strong
	// classes present.
	hasST, hasSNT := false, false
	for _, r := range ex.Rows {
		switch r.Class {
		case ST:
			hasST = true
		case SNT:
			hasSNT = true
		}
	}
	if !hasST || !hasSNT {
		t.Fatalf("example counter should mix opposite classes")
	}
	// Each row carries its static's PC: static s sits at PC 4s.
	for _, r := range ex.Rows {
		if r.PC != uint64(r.Static)*4 {
			t.Fatalf("static %d named by PC %#x, want %#x", r.Static, r.PC, r.Static*4)
		}
	}
}

func TestFindExampleEmpty(t *testing.T) {
	st := &Study{}
	if _, ok := FindExample(st); ok {
		t.Fatalf("empty study must not produce an example")
	}
}

// TestKeyPacking: the (static, counter) packing must be collision-free
// for realistic ranges.
func TestKeyPacking(t *testing.T) {
	f := func(s1, s2 uint32, c1, c2 uint16) bool {
		if s1 == s2 && c1 == c2 {
			return true
		}
		return key(s1, int(c1)) != key(s2, int(c2)) || (s1 == s2 && c1 == c2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
