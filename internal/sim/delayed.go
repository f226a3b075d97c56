package sim

import (
	"fmt"

	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// RunDelayed simulates the pipeline reality the simple Predict/Update
// protocol idealizes: a branch's outcome is not known at predict time —
// it resolves only after `lag` further branches have been predicted. The
// predictor therefore predicts with state that is `lag` updates stale.
//
// This models a machine that does NOT speculatively update its history
// registers, the pessimistic end of the design space. A front end that
// checkpoints speculative history and refetches after a misprediction
// scores exactly Run's mispredicts for gshare and the paper's bi-mode
// (EXPERIMENTS.md, "Update-latency models"). The accuracy gap between Run
// and RunDelayed measures how sensitive a predictor is to update latency:
// global-history schemes degrade because their history register lags the
// fetch stream, while PC-indexed tables barely notice.
//
// RunDelayed is Run over a lag adapter, so its error contract is Run's: a
// decode error from a damaged block source panics, surfacing through the
// scheduler's per-job recovery as the cell's Result.Err.
func RunDelayed(p predictor.Predictor, src trace.Source, lag int) Result {
	if lag < 0 {
		panic(fmt.Sprintf("sim: negative resolution lag %d", lag))
	}
	l := &lagged{Predictor: p, queue: make([]outcome, 0, lag)}
	res := Run(l, src)
	// Drain outstanding resolutions (no more predictions depend on them,
	// but completing keeps predictor state well-defined for reuse).
	l.drain()
	res.Predictor = fmt.Sprintf("%s/lag=%d", p.Name(), lag)
	return res
}

// outcome is one resolved branch waiting to train the predictor.
type outcome struct {
	pc    uint64
	taken bool
}

// lagged delays a predictor's training by lag branches, the queue's
// capacity: Predict forwards, and Update queues the outcome and applies
// the one that has waited lag branches. Its method set is
// predictor.Predictor alone, so runRecords drives it Predict then Update
// per record; the inner predictor's RunBatch would train without the lag.
type lagged struct {
	predictor.Predictor
	queue []outcome // the last lag outcomes, a ring once full
	head  int       // the oldest outcome's slot once the ring is full
}

// Update implements predictor.Predictor.
func (l *lagged) Update(pc uint64, taken bool) {
	if len(l.queue) < cap(l.queue) {
		l.queue = append(l.queue, outcome{pc, taken})
		return
	}
	if len(l.queue) > 0 {
		old := l.queue[l.head]
		l.queue[l.head] = outcome{pc, taken}
		l.head = (l.head + 1) % len(l.queue)
		pc, taken = old.pc, old.taken
	}
	l.Predictor.Update(pc, taken)
}

// drain applies every queued outcome, oldest first.
func (l *lagged) drain() {
	for i := range l.queue {
		o := l.queue[(l.head+i)%len(l.queue)]
		l.Predictor.Update(o.pc, o.taken)
	}
}
