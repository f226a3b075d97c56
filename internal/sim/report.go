package sim

import (
	"fmt"
	"strings"
)

// Report is the structured result of one instrumented simulation run (see
// Observe): the plain Result counts plus the per-run metrics behind the
// paper's Section 4 argument — aliasing classification, choice-structure
// agreement, misprediction concentration — and engine throughput. It
// serializes to JSON so runs can be archived and diffed; cmd/obsreport
// renders it for terminals.
type Report struct {
	Predictor      string  `json:"predictor"`
	Workload       string  `json:"workload"`
	CostBytes      float64 `json:"cost_bytes"`
	Branches       int     `json:"branches"`
	Mispredicts    int     `json:"mispredicts"`
	MispredictRate float64 `json:"mispredict_rate"`
	// StaticBranches is the number of distinct static sites that appeared.
	StaticBranches int `json:"static_branches"`

	// WallSeconds and BranchesPerSec measure the instrumented engine
	// itself. Instrumentation is not free; compare against BENCH_sim.json
	// for the uninstrumented tiers.
	WallSeconds    float64 `json:"wall_seconds"`
	BranchesPerSec float64 `json:"branches_per_sec"`

	// Interference is present when the predictor exposes counter indices
	// (predictor.Probe).
	Interference *InterferenceMetrics `json:"interference,omitempty"`
	// Choice is present when the predictor has a steering structure
	// (bi-mode, tri-mode, agree) and implements predictor.Probe.
	Choice *ChoiceMetrics `json:"choice,omitempty"`

	// TopBranches lists the most-mispredicting static branches (H2P),
	// hardest first; TopShare is the fraction of all mispredictions they
	// account for.
	TopBranches []BranchMetrics `json:"top_branches,omitempty"`
	TopShare    float64         `json:"top_share"`
}

// InterferenceMetrics classifies every counter access by aliasing effect,
// the per-run form of the paper's Section 4 analysis. An access is aliased
// when the consulted counter was last written by a different static
// branch. Aliased accesses are judged against a per-static two-bit shadow
// counter (the branch's own bias, trained only by its own outcomes): the
// prediction the branch would plausibly have received without sharing.
//
//	Destructive  - predictor wrong, own-bias shadow right: sharing broke a
//	               branch its own bias had learned.
//	Constructive - predictor right, own-bias shadow wrong: a neighbor's
//	               training helped.
//	Neutral      - predictor and shadow agree (both right or both wrong):
//	               sharing changed nothing observable.
//
// Destructive+Constructive+Neutral == Aliased. Cold counts first-touch
// accesses (the counter had no writer yet).
//
// This is the one definition of destructive aliasing in the repository:
// cmd/obsreport, the predserve session reports and
// analysis.MeasureInterference all read these fields. "Aliased and
// mispredicted" is a different, weaker quantity, AliasedMispredicts.
type InterferenceMetrics struct {
	Counters     int `json:"counters"`
	Aliased      int `json:"aliased_accesses"`
	Destructive  int `json:"destructive"`
	Constructive int `json:"constructive"`
	Neutral      int `json:"neutral"`
	Cold         int `json:"cold_accesses"`
	// AliasedMispredicts counts mispredictions on aliased accesses (the
	// conflict-miss exposure, cf. analysis.InterferenceBreakdown).
	AliasedMispredicts int `json:"aliased_mispredicts"`
	// ColdMispredicts counts mispredictions on cold accesses (the
	// compulsory misses of analysis.InterferenceBreakdown).
	ColdMispredicts int `json:"cold_mispredicts"`
}

// ChoiceMetrics aggregates the steering structure's behavior: how often
// its vote matched the resolved outcome, how often the selected bank
// agreed with it, and how often the paper's partial-update exception fired
// (choice wrong about the bias, selected counter still right).
type ChoiceMetrics struct {
	Branches         int `json:"branches"`
	AgreeOutcome     int `json:"choice_agrees_outcome"`
	PredictionAgrees int `json:"prediction_agrees_choice"`
	PartialHold      int `json:"partial_hold"`
	// BankUse counts dynamic selections per bank id; empty when the
	// predictor reports no banks.
	BankUse []int `json:"bank_use,omitempty"`
}

// BranchMetrics is one static branch's row in the H2P ranking.
type BranchMetrics struct {
	Static      uint32  `json:"static"`
	PC          uint64  `json:"pc"`
	Count       int     `json:"count"`
	Taken       int     `json:"taken"`
	Mispredicts int     `json:"mispredicts"`
	MissRate    float64 `json:"miss_rate"`
}

// String renders the headline numbers in one line.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s: %d branches, %.2f%% mispredict, %.1f Mbr/s",
		r.Predictor, r.Workload, r.Branches, 100*r.MispredictRate, r.BranchesPerSec/1e6)
	if m := r.Interference; m != nil && r.Branches > 0 {
		fmt.Fprintf(&b, ", aliasing %.2f%% destructive / %.2f%% neutral / %.2f%% constructive",
			100*float64(m.Destructive)/float64(r.Branches),
			100*float64(m.Neutral)/float64(r.Branches),
			100*float64(m.Constructive)/float64(r.Branches))
	}
	return b.String()
}
