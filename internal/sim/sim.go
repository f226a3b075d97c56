// Package sim drives predictors over branch streams and runs the
// parameter sweeps behind the paper's figures: misprediction measurement,
// parallel (predictor x workload) grids, and the exhaustive gshare.best
// search of Section 3.1.
package sim

import (
	"context"
	"fmt"
	"math"

	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Result summarizes one simulation run.
type Result struct {
	// Predictor is the predictor's Name().
	Predictor string
	// Workload is the trace source's Name().
	Workload string
	// CostBytes is the predictor's storage cost in bytes.
	CostBytes float64
	// Branches is the number of dynamic conditional branches simulated.
	Branches int
	// Mispredicts is the number of wrong direction predictions.
	Mispredicts int
	// Err records a job that did not complete: RunAll recovers per-job
	// panics (a broken predictor constructor, a predictor or source
	// panicking mid-run) into this field instead of letting one bad cell
	// take down the whole suite. The counting fields are zero when Err is
	// set.
	Err error
}

// MispredictRate returns mispredictions per branch (0..1).
func (r Result) MispredictRate() float64 {
	if r.Branches == 0 {
		return 0
	}
	return float64(r.Mispredicts) / float64(r.Branches)
}

// String renders the result in one line.
func (r Result) String() string {
	return fmt.Sprintf("%-24s %-12s %8.0fB  %9d branches  %6.2f%% mispredict",
		r.Predictor, r.Workload, r.CostBytes, r.Branches, 100*r.MispredictRate())
}

// Run simulates p over src, counting mispredictions. The predictor is NOT
// reset first; callers pass fresh or explicitly Reset predictors.
// Following the paper, no warm-up exclusion is applied (its tables start
// weakly-taken and the cold-start transient is part of the measurement).
//
// Run is the block driver with a context that never cancels:
// trace.BranchBlocks cuts any source into record slices, and runRecords
// runs each slice through the predictor's RunBatch kernel, or else
// Predict/Update. Both paths produce bit-identical Mispredicts (enforced by
// TestFastPathEquivalence); the kernel is an optimization, never a
// semantic fork. A decode error from a damaged block source panics,
// surfacing through the scheduler's per-job recovery as the cell's
// Result.Err.
func Run(p predictor.Predictor, src trace.Source) Result {
	res := Result{
		Predictor: p.Name(),
		Workload:  src.Name(),
		CostBytes: predictor.CostBytes(p),
	}
	var err error
	res.Branches, res.Mispredicts, err = drive(context.Background(), p, src)
	if err != nil {
		panic(err)
	}
	return res
}

// drive is the engine's one block driver. It pulls blocks from
// trace.BranchBlocks(src), checks ctx at every block boundary and runs
// each block through runRecords; the predictor state carries across
// blocks, so the result is bit-identical to one call over the
// concatenated records. A predictor reads a record's PC and Taken only
// (Predict and Update take nothing else, and no kernel reads Static), so
// a columnar block whose static column an earlier pass has checked is
// decoded without it. It returns the records simulated and the
// mispredicts among them.
func drive(ctx context.Context, p predictor.Predictor, src trace.Source) (int, int, error) {
	bs := trace.BranchBlocks(src)
	n, miss := 0, 0
	for {
		if err := ctx.Err(); err != nil {
			return n, miss, err
		}
		recs, err := bs.NextBlock()
		if err != nil {
			return n, miss, err
		}
		if recs == nil {
			return n, miss, nil
		}
		miss += runRecords(p, recs)
		n += len(recs)
	}
}

// runRecords simulates a flat record slice with p's RunBatch kernel, or
// else Predict then Update per record.
func runRecords(p predictor.Predictor, recs []trace.Record) int {
	if br, ok := p.(predictor.BatchRunner); ok {
		return br.RunBatch(recs)
	}
	return predictUpdateRecords(p, recs)
}

// predictUpdateRecords is the base-protocol per-record loop over a
// materialized trace: Predict then Update per branch.
//
//bimode:hotpath dispatch
func predictUpdateRecords(p predictor.Predictor, recs []trace.Record) int {
	miss := 0
	for _, r := range recs {
		if p.Predict(r.PC) != r.Taken {
			miss++
		}
		p.Update(r.PC, r.Taken)
	}
	return miss
}

// predictUpdateStream is the base-protocol per-record loop over a stream,
// returning (mispredicts, branches).
//
//bimode:hotpath dispatch
func predictUpdateStream(p predictor.Predictor, st trace.Stream) (int, int) {
	miss, n := 0, 0
	for {
		rec, ok := st.Next()
		if !ok {
			return miss, n
		}
		if p.Predict(rec.PC) != rec.Taken {
			miss++
		}
		p.Update(rec.PC, rec.Taken)
		n++
	}
}

// RunGeneric simulates p over a fresh stream of src using only the base
// Predictor interface — Predict then Update per branch through the Stream,
// ignoring every fast-path capability. It is the reference implementation
// the differential tests compare Run against; measurement semantics are
// identical.
func RunGeneric(p predictor.Predictor, src trace.Source) Result {
	res := Result{
		Predictor: p.Name(),
		Workload:  src.Name(),
		CostBytes: predictor.CostBytes(p),
	}
	res.Mispredicts, res.Branches = predictUpdateStream(p, src.Stream())
	return res
}

// Job is one (predictor, workload) cell of a sweep grid. The predictor is
// constructed inside the worker so each goroutine owns its state.
type Job struct {
	// Make constructs the predictor to run.
	Make func() predictor.Predictor
	// Source supplies the workload.
	Source trace.Source
}

// RunAll executes the jobs through the default scheduler (GOMAXPROCS
// workers) and returns results in job order; see Scheduler.RunAll for the
// sharing, ordering and panic-capture contract, and NewScheduler(0) for
// the sequential reference path the parallel output is proven against.
func RunAll(jobs []Job) []Result {
	return DefaultScheduler().RunAll(jobs)
}

// AverageRate returns the arithmetic mean misprediction rate of the
// results, the aggregation the paper's Figure 2 uses. It is NaN when any
// result failed (Err set): a partial average would silently misstate the
// suite.
func AverageRate(results []Result) float64 {
	if len(results) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range results {
		if r.Err != nil {
			return math.NaN()
		}
		sum += r.MispredictRate()
	}
	return sum / float64(len(results))
}
