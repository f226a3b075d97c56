package experiments

import (
	"fmt"

	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/zoo"
)

// The suite observation helpers below serve only tests:
// TestSection4DestructiveAliasing checks the paper's Section 4 claim
// with them, and the parallel tests use ObserveSuite as traffic.

// SuiteObservation attaches instrumented runs to a figure sweep: one
// sim.Report per (predictor spec, suite workload). It is the per-run form
// of the paper's Section 4 analysis — where the offline internal/analysis
// pass replays a trace per study, these reports fall out of ordinary
// simulation runs and serialize with the rest of the figure data.
type SuiteObservation struct {
	Suite   string       `json:"suite"`
	Dynamic int          `json:"dynamic"`
	Reports []sim.Report `json:"reports"`
}

// ObserveSuite runs every spec over every workload of the named suite
// through the instrumented tier, fanning the (spec, workload) grid out
// over cfg's scheduler; report order is fixed by the grid (specs outer,
// workloads inner), independent of the worker count. Specs must name
// predictors known to package zoo; topN bounds each report's H2P ranking.
func ObserveSuite(suite string, specs []string, cfg Config, topN int) (*SuiteObservation, error) {
	sources := SuiteSources(suite, cfg)
	if len(sources) == 0 {
		return nil, fmt.Errorf("experiments: unknown suite %q", suite)
	}
	for _, spec := range specs {
		if _, err := zoo.New(spec); err != nil {
			return nil, err
		}
	}
	out := &SuiteObservation{Suite: suite, Dynamic: cfg.Dynamic}
	out.Reports = make([]sim.Report, len(specs)*len(sources))
	if err := firstErr(cfg.sched().Do(len(out.Reports), func(k int) error {
		spec := specs[k/len(sources)]
		src := sources[k%len(sources)]
		out.Reports[k] = *sim.Observe(zoo.MustNew(spec), src, sim.ObserveOptions{TopN: topN})
		return nil
	})); err != nil {
		return nil, err
	}
	return out, nil
}

// Figure2Observation instruments the Figure 2 comparison at one size
// point: the single-PHT gshare with 2^sizeBits counters against the
// bi-mode predictor the paper places alongside it (banks of
// 2^(sizeBits-1) counters, 1.5x the gshare cost), over the SPEC suite.
// The resulting reports reproduce the Section 4 finding as run metadata:
// bi-mode's destructive-aliasing rate sits below gshare's.
func Figure2Observation(cfg Config, sizeBits, topN int) (*SuiteObservation, error) {
	if sizeBits < 2 {
		return nil, fmt.Errorf("experiments: size 2^%d too small for the figure 2 pair", sizeBits)
	}
	return ObserveSuite(synth.SuiteSPEC, []string{
		fmt.Sprintf("gshare:i=%d,h=%d", sizeBits, sizeBits),
		fmt.Sprintf("bimode:b=%d", sizeBits-1),
	}, cfg, topN)
}

// DestructiveRate aggregates one predictor's destructive aliased accesses
// per branch across the suite (reports without interference metrics are
// skipped). The bool reports whether any matching run carried them.
func (o *SuiteObservation) DestructiveRate(predictorName string) (float64, bool) {
	branches, destructive, seen := 0, 0, false
	for i := range o.Reports {
		r := &o.Reports[i]
		if r.Predictor != predictorName || r.Interference == nil {
			continue
		}
		seen = true
		branches += r.Branches
		destructive += r.Interference.Destructive
	}
	if !seen || branches == 0 {
		return 0, seen
	}
	return float64(destructive) / float64(branches), true
}
