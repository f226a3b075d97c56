// Package fixture holds ladder-respecting predictors: every capability
// is backed by the rungs below it.
package fixture

import (
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// Full climbs the whole ladder: Predictor, BatchRunner, Probe,
// ProbeBatcher, Snapshotter.
type Full struct{ bit bool }

// Name implements predictor.Predictor.
func (*Full) Name() string { return "full" }

// Predict implements predictor.Predictor.
func (*Full) Predict(pc uint64) bool { return false }

// Update implements predictor.Predictor.
func (*Full) Update(pc uint64, taken bool) {}

// Reset implements predictor.Predictor.
func (*Full) Reset() {}

// CostBits implements predictor.Predictor.
func (*Full) CostBits() int { return 0 }

// RunBatch implements predictor.BatchRunner.
func (*Full) RunBatch(recs []trace.Record) int { return 0 }

// NumCounters implements predictor.Probe.
func (*Full) NumCounters() int { return 1 }

// ProbeLookup implements predictor.Probe.
func (*Full) ProbeLookup(pc uint64) predictor.Lookup { return predictor.Lookup{} }

// ProbeBatch implements predictor.ProbeBatcher.
func (*Full) ProbeBatch(recs []trace.Record, rows []predictor.ProbeRow) {}

// Snapshot implements predictor.Snapshotter.
func (*Full) Snapshot(dst []byte) []byte { return dst }

// RestoreSnapshot implements predictor.Snapshotter.
func (*Full) RestoreSnapshot(data []byte) error { return nil }

// BaseOnly implements just the base protocol, which is always legal.
type BaseOnly struct{}

// Name implements predictor.Predictor.
func (*BaseOnly) Name() string { return "base" }

// Predict implements predictor.Predictor.
func (*BaseOnly) Predict(pc uint64) bool { return true }

// Update implements predictor.Predictor.
func (*BaseOnly) Update(pc uint64, taken bool) {}

// Reset implements predictor.Predictor.
func (*BaseOnly) Reset() {}

// CostBits implements predictor.Predictor.
func (*BaseOnly) CostBits() int { return 0 }

// BlockedSource climbs the trace ladder: the block iterator is backed by
// the Source protocol the differential oracle replays against.
type BlockedSource struct{}

// Name implements trace.Source.
func (BlockedSource) Name() string { return "blocked" }

// StaticCount implements trace.Source.
func (BlockedSource) StaticCount() int { return 0 }

// Stream implements trace.Source.
func (BlockedSource) Stream() trace.Stream { return nil }

// BlockStream implements trace.Blocked.
func (BlockedSource) BlockStream() trace.BlockStream { return nil }
