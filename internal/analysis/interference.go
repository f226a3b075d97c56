package analysis

import (
	"context"
	"fmt"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
)

// InterferenceBreakdown decomposes a predictor's mispredictions in the
// style of Michaud, Seznec and Uhlig's conflict/capacity analysis (the
// hashing paper the bi-mode paper compares against):
//
//	Compulsory - the branch touches this counter for the first time
//	             (cold counter: nothing could have been learned yet).
//	Conflict   - the counter was last written by a DIFFERENT static
//	             branch (interference damage, destructive aliasing).
//	Intrinsic  - the branch itself trained the counter last and still
//	             mispredicted (the stream's own unpredictability).
//
// The three counts partition Mispredicts exactly.
type InterferenceBreakdown struct {
	Predictor   string
	Workload    string
	Branches    int
	Mispredicts int
	Compulsory  int
	Conflict    int
	Intrinsic   int
	// ConflictAccesses counts ALL accesses (not just mispredictions)
	// whose counter was last written by another branch — the raw
	// interference exposure.
	ConflictAccesses int
}

// Rates returns the three components as fractions of all branches.
func (b InterferenceBreakdown) Rates() (compulsory, conflict, intrinsic float64) {
	if b.Branches == 0 {
		return 0, 0, 0
	}
	n := float64(b.Branches)
	return float64(b.Compulsory) / n, float64(b.Conflict) / n, float64(b.Intrinsic) / n
}

// String renders the breakdown in one line.
func (b InterferenceBreakdown) String() string {
	c, f, i := b.Rates()
	return fmt.Sprintf("%s on %s: %.2f%% mispredict = %.2f%% compulsory + %.2f%% conflict + %.2f%% intrinsic",
		b.Predictor, b.Workload,
		100*float64(b.Mispredicts)/float64(max(b.Branches, 1)), 100*c, 100*f, 100*i)
}

// MeasureInterference runs the decomposition for a predictor implementing
// predictor.Probe. It is one sim.Observer pass: compulsory misses are
// the observer's cold mispredictions, conflict misses its aliased
// mispredictions, and the intrinsic component is the remainder.
func MeasureInterference(p predictor.Predictor, src trace.Source) (InterferenceBreakdown, error) {
	if _, ok := p.(predictor.Probe); !ok {
		return InterferenceBreakdown{}, fmt.Errorf("analysis: predictor %s does not expose counter indices", p.Name())
	}
	rep, err := sim.ObserveContext(context.Background(), p, src, sim.ObserveOptions{TopN: -1})
	if err != nil {
		return InterferenceBreakdown{}, fmt.Errorf("analysis: measuring %s on %s: %w", p.Name(), src.Name(), err)
	}
	m := rep.Interference
	return InterferenceBreakdown{
		Predictor:        rep.Predictor,
		Workload:         rep.Workload,
		Branches:         rep.Branches,
		Mispredicts:      rep.Mispredicts,
		Compulsory:       m.ColdMispredicts,
		Conflict:         m.AliasedMispredicts,
		Intrinsic:        rep.Mispredicts - m.ColdMispredicts - m.AliasedMispredicts,
		ConflictAccesses: m.Aliased,
	}, nil
}
