package analysis

import (
	"strings"
	"testing"

	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

func TestInterferencePartitionsMispredictions(t *testing.T) {
	src := aliasedSource(400)
	b, err := MeasureInterference(baselines.NewGshare(2, 2), src)
	if err != nil {
		t.Fatal(err)
	}
	if b.Compulsory+b.Conflict+b.Intrinsic != b.Mispredicts {
		t.Fatalf("components %d+%d+%d do not partition %d",
			b.Compulsory, b.Conflict, b.Intrinsic, b.Mispredicts)
	}
	if b.Branches != 1200 {
		t.Fatalf("branches = %d", b.Branches)
	}
	if b.ConflictAccesses == 0 {
		t.Fatalf("the crafted stream must show conflict accesses")
	}
	c, f, i := b.Rates()
	if sum := c + f + i; sum < 0 || sum > 1 {
		t.Fatalf("rates out of range: %v", sum)
	}
	if !strings.Contains(b.String(), "conflict") {
		t.Fatalf("String incomplete")
	}
}

func TestInterferenceRequiresIndexed(t *testing.T) {
	_, err := MeasureInterference(baselines.NewStatic(baselines.AlwaysTaken), aliasedSource(5))
	if err == nil {
		t.Fatalf("a predictor that is not a Probe must be rejected")
	}
}

func TestBiModeReducesConflictComponent(t *testing.T) {
	// The core claim seen through this lens: bi-mode converts conflict
	// mispredictions into (fewer) intrinsic ones on the aliasing-heavy
	// crafted stream.
	src := aliasedSource(600)
	gs, err := MeasureInterference(baselines.NewGshare(2, 2), src)
	if err != nil {
		t.Fatal(err)
	}
	bm, err := MeasureInterference(core.MustNew(core.Config{ChoiceBits: 8, BankBits: 2, HistoryBits: 2}), src)
	if err != nil {
		t.Fatal(err)
	}
	if bm.Conflict >= gs.Conflict {
		t.Fatalf("bi-mode conflict misses %d should be below gshare's %d", bm.Conflict, gs.Conflict)
	}
}

func TestInterferenceNoConflictsWhenTableHuge(t *testing.T) {
	// With a table far larger than the branch/pattern working set, every
	// counter is private: no conflict accesses at all.
	src := aliasedSource(100)
	b, err := MeasureInterference(baselines.NewSmith(16), src)
	if err != nil {
		t.Fatal(err)
	}
	if b.Conflict != 0 || b.ConflictAccesses != 0 {
		t.Fatalf("a huge smith table must be conflict-free, got %d/%d", b.Conflict, b.ConflictAccesses)
	}
}

func TestInterferenceEmptyStream(t *testing.T) {
	var z InterferenceBreakdown
	c, f, i := z.Rates()
	if c != 0 || f != 0 || i != 0 {
		t.Fatalf("empty breakdown rates must be zero")
	}
}

// suiteTraces materializes the 14 synthetic suite workloads at a size
// that keeps the whole-zoo sweeps below quick.
func suiteTraces(t *testing.T) []*trace.Memory {
	t.Helper()
	var out []*trace.Memory
	for _, prof := range synth.Profiles() {
		out = append(out, trace.Materialize(synth.MustWorkload(prof.WithDynamic(8000))))
	}
	if len(out) != 14 {
		t.Fatalf("suite has %d workloads, want 14", len(out))
	}
	return out
}

// referenceInterference is the stream loop MeasureInterference ran
// before it became a sim.Observer pass, kept verbatim as the oracle the
// observer-derived breakdown must reproduce.
func referenceInterference(p predictor.Predictor, src trace.Source) InterferenceBreakdown {
	ix := p.(predictor.Probe)
	out := InterferenceBreakdown{Predictor: p.Name(), Workload: src.Name()}
	lastWriter := make([]int64, ix.NumCounters())
	for i := range lastWriter {
		lastWriter[i] = -1
	}
	st := src.Stream()
	for {
		rec, ok := st.Next()
		if !ok {
			break
		}
		cid := ix.ProbeLookup(rec.PC).CounterID
		writer := lastWriter[cid]
		conflictAccess := writer >= 0 && writer != int64(rec.Static)
		if conflictAccess {
			out.ConflictAccesses++
		}
		miss := p.Predict(rec.PC) != rec.Taken
		if miss {
			out.Mispredicts++
			switch {
			case writer < 0:
				out.Compulsory++
			case conflictAccess:
				out.Conflict++
			default:
				out.Intrinsic++
			}
		}
		p.Update(rec.PC, rec.Taken)
		lastWriter[cid] = int64(rec.Static)
		out.Branches++
	}
	return out
}

// TestMeasureInterferenceMatchesReference: for every Probe zoo spec
// over the 14 suite workloads, the observer-derived breakdown equals the
// old private loop's exactly.
func TestMeasureInterferenceMatchesReference(t *testing.T) {
	traces := suiteTraces(t)
	specs := 0
	for _, spec := range zoo.Known() {
		if _, ok := zoo.MustNew(spec).(predictor.Probe); !ok {
			continue
		}
		specs++
		for _, mem := range traces {
			got, err := MeasureInterference(zoo.MustNew(spec), mem)
			if err != nil {
				t.Fatalf("%s on %s: %v", spec, mem.Name(), err)
			}
			if want := referenceInterference(zoo.MustNew(spec), mem); got != want {
				t.Errorf("%s on %s:\n got %+v\nwant %+v", spec, mem.Name(), got, want)
			}
		}
	}
	if specs == 0 {
		t.Fatal("no Probe specs in the zoo")
	}
}
