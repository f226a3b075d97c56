package sim

import (
	"errors"
	"math"
	"testing"

	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// fixedSource emits a deterministic synthetic stream for tests: one
// always-taken branch and one alternating branch.
func fixedSource(n int) trace.Source {
	recs := make([]trace.Record, 0, n)
	for i := 0; i < n; i++ {
		if i%2 == 0 {
			recs = append(recs, trace.Record{PC: 0x100, Static: 0, Taken: true})
		} else {
			recs = append(recs, trace.Record{PC: 0x200, Static: 1, Taken: i%4 == 1})
		}
	}
	return trace.NewMemory("fixed", 2, recs)
}

func TestRunCountsEverything(t *testing.T) {
	src := fixedSource(1000)
	res := Run(baselines.NewStatic(baselines.AlwaysTaken), src)
	if res.Branches != 1000 {
		t.Fatalf("branches = %d", res.Branches)
	}
	// Static-taken mispredicts exactly the not-taken halves of the
	// alternating branch: 250 of 1000.
	if res.Mispredicts != 250 {
		t.Fatalf("mispredicts = %d, want 250", res.Mispredicts)
	}
	if res.MispredictRate() != 0.25 {
		t.Fatalf("rate wrong: %v", res.MispredictRate())
	}
	if res.Workload != "fixed" || res.Predictor != "static-taken" {
		t.Fatalf("labels wrong: %+v", res)
	}
}

func TestResultZeroBranches(t *testing.T) {
	var r Result
	if r.MispredictRate() != 0 {
		t.Fatalf("zero-branch result must have rate 0")
	}
}

func TestRunAllMatchesSerialAndOrder(t *testing.T) {
	src := trace.Materialize(fixedSource(2000))
	mks := []func() predictor.Predictor{
		func() predictor.Predictor { return baselines.NewSmith(8) },
		func() predictor.Predictor { return baselines.NewGshare(8, 8) },
		func() predictor.Predictor { return core.MustNew(core.DefaultConfig(7)) },
		func() predictor.Predictor { return baselines.NewStatic(baselines.AlwaysNotTaken) },
	}
	jobs := make([]Job, len(mks))
	want := make([]Result, len(mks))
	for i, mk := range mks {
		jobs[i] = Job{Make: mk, Source: src}
		want[i] = Run(mk(), src)
	}
	got := RunAll(jobs)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("job %d: parallel %+v != serial %+v", i, got[i], want[i])
		}
	}
}

func TestRunAllEmpty(t *testing.T) {
	if res := RunAll(nil); len(res) != 0 {
		t.Fatalf("empty jobs must give empty results")
	}
}

func TestAverageRate(t *testing.T) {
	rs := []Result{
		{Branches: 100, Mispredicts: 10},
		{Branches: 100, Mispredicts: 30},
	}
	if got := AverageRate(rs); math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("average = %v, want 0.2", got)
	}
	if AverageRate(nil) != 0 {
		t.Fatalf("empty average must be 0")
	}
	// A failed cell has no rate: the average is NaN, not a mean that
	// counts the cell as 0%.
	rs = append(rs, Result{Err: errors.New("context canceled")})
	if got := AverageRate(rs); !math.IsNaN(got) {
		t.Fatalf("average over a failed cell = %v, want NaN", got)
	}
}

// TestPickBestGshareSkipsFailedRows: a history length whose row has a
// failed cell never wins over a complete row, even where counting the
// failed cell as 0% would make its row the best, and wherever it sits;
// when every row failed, the first wins with a NaN average.
func TestPickBestGshareSkipsFailedRows(t *testing.T) {
	ok := func(miss int) Result { return Result{Branches: 100, Mispredicts: miss} }
	failed := Result{Err: errors.New("context canceled")}
	sweep := [][]Result{
		{failed, ok(1)},
		{ok(30), ok(30)},
		{failed, ok(10)},
		{ok(20), ok(30)},
	}
	best := PickBestGshare(3, sweep)
	if best.HistoryBits != 3 || math.Abs(best.AvgRate-0.25) > 1e-12 {
		t.Fatalf("best = h%d at %v, want h3 at 0.25", best.HistoryBits, best.AvgRate)
	}
	best = PickBestGshare(1, [][]Result{{failed}, {ok(5), failed}})
	if best.HistoryBits != 0 || !math.IsNaN(best.AvgRate) {
		t.Fatalf("all rows failed: best = h%d at %v, want h0 at NaN", best.HistoryBits, best.AvgRate)
	}
}

func TestSweepGshareShape(t *testing.T) {
	src := trace.Materialize(fixedSource(4000))
	sweep := SweepGshare(4, []trace.Source{src, src})
	if len(sweep) != 5 {
		t.Fatalf("sweep rows = %d, want 5", len(sweep))
	}
	for h, row := range sweep {
		if len(row) != 2 {
			t.Fatalf("h=%d: %d results, want 2", h, len(row))
		}
		for _, r := range row {
			if r.Branches != 4000 {
				t.Fatalf("h=%d: branches %d", h, r.Branches)
			}
		}
	}
}

func TestFindBestGshare(t *testing.T) {
	// The fixed source's alternating branch needs history: the best
	// configuration must use at least one history bit and beat h=0.
	src := trace.Materialize(fixedSource(4000))
	best := FindBestGshare(6, []trace.Source{src})
	if best.HistoryBits < 1 {
		t.Fatalf("alternating workload should favor history, got h=%d", best.HistoryBits)
	}
	sweep := SweepGshare(6, []trace.Source{src})
	for h := range sweep {
		if AverageRate(sweep[h]) < best.AvgRate {
			t.Fatalf("best is not best: h=%d beats it", h)
		}
	}
	if len(best.PerWorkload) != 1 || best.IndexBits != 6 {
		t.Fatalf("best metadata wrong: %+v", best)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Predictor: "p", Workload: "w", CostBytes: 128, Branches: 10, Mispredicts: 1}
	if s := r.String(); s == "" {
		t.Fatalf("String must render")
	}
}
