package sim

import (
	"math"

	"bimode/internal/baselines"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// BestGshare describes the winning configuration of the Section 3.1
// exhaustive search at one predictor size.
type BestGshare struct {
	// IndexBits is log2 of the second-level counter count (fixed by the
	// size point).
	IndexBits int
	// HistoryBits is the winning global history length.
	HistoryBits int
	// AvgRate is the winning suite-average misprediction rate.
	AvgRate float64
	// PerWorkload holds the winning configuration's per-workload results,
	// in the order of the sources passed to FindBestGshare.
	PerWorkload []Result
}

// SweepGshare simulates every gshare history length 0..indexBits at a
// fixed second-level size over all sources using the default scheduler.
// The returned matrix is indexed [historyBits][source].
func SweepGshare(indexBits int, sources []trace.Source) [][]Result {
	return sweepGshare(DefaultScheduler(), indexBits, sources)
}

// sweepGshare is the scheduler-routed sweep behind SweepGshare and
// Scheduler.SweepGshare.
func sweepGshare(s *Scheduler, indexBits int, sources []trace.Source) [][]Result {
	jobs := make([]Job, 0, (indexBits+1)*len(sources))
	for h := 0; h <= indexBits; h++ {
		h := h
		for _, src := range sources {
			jobs = append(jobs, Job{
				Make:   func() predictor.Predictor { return baselines.NewGshare(indexBits, h) },
				Source: src,
			})
		}
	}
	flat := s.RunAll(jobs)
	out := make([][]Result, indexBits+1)
	for h := 0; h <= indexBits; h++ {
		out[h] = flat[h*len(sources) : (h+1)*len(sources)]
	}
	return out
}

// FindBestGshare reproduces the paper's gshare.best methodology: for a
// fixed second-level size of 2^indexBits counters it simulates every
// history length 0..indexBits over all sources and returns the
// configuration with the lowest *suite-average* misprediction rate (the
// paper stresses the best configuration is chosen on the average, not per
// benchmark, and in general has multiple PHTs).
func FindBestGshare(indexBits int, sources []trace.Source) BestGshare {
	return PickBestGshare(indexBits, SweepGshare(indexBits, sources))
}

// PickBestGshare selects the best configuration from a SweepGshare
// matrix. A row with a failed cell has a NaN average and never wins over
// a complete row; when every row failed, the first wins with its NaN.
func PickBestGshare(indexBits int, sweep [][]Result) BestGshare {
	best := BestGshare{IndexBits: indexBits, HistoryBits: -1}
	for h, results := range sweep {
		avg := AverageRate(results)
		if best.HistoryBits < 0 || avg < best.AvgRate || math.IsNaN(best.AvgRate) && !math.IsNaN(avg) {
			best = BestGshare{IndexBits: indexBits, HistoryBits: h, AvgRate: avg, PerWorkload: results}
		}
	}
	return best
}
