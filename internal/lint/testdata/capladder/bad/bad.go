// Package fixture holds predictors that skip rungs of the capability
// ladder.
package fixture

import (
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// BatchOnly has a whole-trace loop but no Predict/Update reference to
// compare it against.
type BatchOnly struct{} // want `implements predictor.BatchRunner but not predictor.Predictor`

// RunBatch implements predictor.BatchRunner.
func (BatchOnly) RunBatch(recs []trace.Record) int { return 0 }

// ProbeOnly reports decision paths without being a predictor at all.
type ProbeOnly struct{} // want `implements predictor.Probe but not predictor.Predictor`

// ProbeLookup implements predictor.Probe.
func (ProbeOnly) ProbeLookup(pc uint64) predictor.Lookup { return predictor.Lookup{} }

// NumCounters implements predictor.Probe.
func (ProbeOnly) NumCounters() int { return 1 }

// SnapshotOnly serializes state that no predictor protocol can replay.
type SnapshotOnly struct{} // want `implements predictor.Snapshotter but not predictor.Predictor`

// Snapshot implements predictor.Snapshotter.
func (SnapshotOnly) Snapshot(dst []byte) []byte { return dst }

// RestoreSnapshot implements predictor.Snapshotter.
func (SnapshotOnly) RestoreSnapshot(data []byte) error { return nil }

// BlockedOnly iterates record blocks but cannot replay the workload
// through the base Source protocol.
type BlockedOnly struct{} // want `implements trace.Blocked but not trace.Source`

// BlockStream implements trace.Blocked.
func (BlockedOnly) BlockStream() trace.BlockStream { return nil }

// ProbeBatchOnly writes probe rows with neither the per-record probe nor
// the batch loop to check them against.
type ProbeBatchOnly struct{} // want `implements predictor.ProbeBatcher but not predictor.Probe` `implements predictor.ProbeBatcher but not predictor.BatchRunner`

// ProbeBatch implements predictor.ProbeBatcher.
func (ProbeBatchOnly) ProbeBatch(recs []trace.Record, rows []predictor.ProbeRow) {}
