// Package predictor defines the interface every branch predictor in this
// repository implements, together with the hardware cost model the paper
// uses to place predictors on its size axis, and an introspection
// interface that exposes which second-level counter a lookup consults
// (required by the Section 4 bias analysis).
package predictor

import "bimode/internal/trace"

// Predictor is a dynamic conditional-branch direction predictor.
//
// The simulation protocol is: for each dynamic conditional branch, call
// Predict(pc) to obtain the predicted direction, then Update(pc, taken)
// with the resolved outcome. Update must be called exactly once per
// Predict, in order; predictors are free to keep speculative state between
// the two calls. Implementations are not safe for concurrent use — the
// sweep driver runs one predictor instance per goroutine instead.
type Predictor interface {
	// Name returns a short human-readable identifier, e.g. "bi-mode(7h)".
	Name() string

	// Predict returns the predicted direction (true = taken) for the
	// conditional branch at pc.
	Predict(pc uint64) bool

	// Update trains the predictor with the resolved outcome of the branch
	// at pc and advances any history registers.
	Update(pc uint64, taken bool)

	// Reset restores the predictor to its post-construction state.
	Reset()

	// CostBits returns the predictor's storage cost in bits of counter
	// state. Following the paper, only prediction counters are charged;
	// history registers are not.
	CostBits() int
}

// CostBytes converts a predictor's cost to bytes, the unit of the paper's
// size axis (0.25 KB ... 32 KB).
func CostBytes(p Predictor) float64 { return float64(p.CostBits()) / 8 }

// BatchRunner is the optional whole-trace capability: a predictor that
// runs an entire record slice in one fully inlined loop, touching its
// tables directly instead of through per-branch method calls. RunBatch
// must be observationally identical to calling Predict then Update on
// every record in order and counting mispredictions: Predict/Update is
// the reference every kernel is checked against, record for record.
type BatchRunner interface {
	// RunBatch simulates every record in order and returns the number of
	// wrong direction predictions.
	RunBatch(recs []trace.Record) (mispredicts int)
}

// Snapshotter is the optional checkpoint capability: a predictor that can
// serialize its complete mutable state (counter tables and history
// registers) and later restore it into an identically configured
// instance. The prediction service's session journal (internal/serve) is
// its one user: it persists each live session's predictor state, so the
// contract is strict: after RestoreSnapshot(Snapshot(nil)) the predictor
// must be prediction-for-prediction indistinguishable from the instance
// that was snapshotted, for any subsequent stream (the property test in
// internal/sim enforces this for every implementation in the
// repository).
//
// Snapshots encode only mutable state, not configuration: restoring is
// defined only into a predictor built with the same constructor
// parameters. Implementations must validate what they can (type tag,
// table widths and lengths, counter ranges) and reject anything else with
// an error, never panic, since snapshot bytes come from checkpoint files.
type Snapshotter interface {
	// Snapshot appends the predictor's mutable state to dst and returns
	// the extended slice (append-style; dst may be nil).
	Snapshot(dst []byte) []byte

	// RestoreSnapshot replaces the predictor's mutable state with a
	// previously captured snapshot. On error the predictor's state is
	// unspecified; callers should Reset or discard it.
	RestoreSnapshot(data []byte) error
}

// Func adapts a pair of functions to the Predictor interface; used by
// tests and by the static predictors.
type Func struct {
	NameStr   string
	PredictFn func(pc uint64) bool
	UpdateFn  func(pc uint64, taken bool)
	ResetFn   func()
	Cost      int
}

// Name implements Predictor.
func (f *Func) Name() string { return f.NameStr }

// Predict implements Predictor.
func (f *Func) Predict(pc uint64) bool { return f.PredictFn(pc) }

// Update implements Predictor.
func (f *Func) Update(pc uint64, taken bool) {
	if f.UpdateFn != nil {
		f.UpdateFn(pc, taken)
	}
}

// Reset implements Predictor.
func (f *Func) Reset() {
	if f.ResetFn != nil {
		f.ResetFn()
	}
}

// CostBits implements Predictor.
func (f *Func) CostBits() int { return f.Cost }
