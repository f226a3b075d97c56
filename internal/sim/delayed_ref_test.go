package sim_test

// Differential tests for RunDelayed, which runs through the block driver
// behind a lag adapter: over every fastpath spec, suite workload and
// several lags, on a materialized and a stream-only source, it must give
// exactly what the stream loop it replaced gives. That loop is kept below
// verbatim as the oracle.

import (
	"errors"
	"fmt"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// runDelayedLoop is RunDelayed as a per-record stream loop with its own
// in-flight queue, the implementation the lag adapter replaced.
func runDelayedLoop(p predictor.Predictor, src trace.Source, lag int) sim.Result {
	if lag < 0 {
		panic(fmt.Sprintf("sim: negative resolution lag %d", lag))
	}
	res := sim.Result{
		Predictor: fmt.Sprintf("%s/lag=%d", p.Name(), lag),
		Workload:  src.Name(),
		CostBytes: predictor.CostBytes(p),
	}
	type pending struct {
		pc    uint64
		taken bool
	}
	queue := make([]pending, 0, lag+1)
	st := src.Stream()
	for {
		rec, ok := st.Next()
		if !ok {
			break
		}
		if p.Predict(rec.PC) != rec.Taken {
			res.Mispredicts++
		}
		res.Branches++
		queue = append(queue, pending{pc: rec.PC, taken: rec.Taken})
		if len(queue) > lag {
			head := queue[0]
			queue = queue[1:]
			p.Update(head.pc, head.taken)
		}
	}
	// Drain outstanding resolutions (no more predictions depend on them,
	// but completing keeps predictor state well-defined for reuse).
	for _, h := range queue {
		p.Update(h.pc, h.taken)
	}
	return res
}

func TestRunDelayedMatchesLoop(t *testing.T) {
	traces := suiteTraces()
	lags := []int{0, 1, 4, 16, 64}
	runs, differ := 0, 0
	for _, spec := range fastpathSpecs() {
		for _, mem := range traces {
			for _, lag := range lags {
				ref := runDelayedLoop(zoo.MustNew(spec), mem, lag)
				for _, src := range []trace.Source{mem, hideCaps{mem}} {
					runs++
					if got := sim.RunDelayed(zoo.MustNew(spec), src, lag); got != ref {
						differ++
						t.Errorf("%s on %s (%T) at lag %d: %+v, loop %+v", spec, mem.Name(), src, lag, got, ref)
					}
				}
			}
		}
	}
	t.Logf("%d of %d runs differ", differ, runs)
}

// TestRunDelayedLeavesLoopState: after the drain, the predictor is in the
// state the loop leaves it in, so a reused predictor continues alike.
func TestRunDelayedLeavesLoopState(t *testing.T) {
	mem := suiteTraces()[0]
	for _, spec := range []string{"bimode:b=11", "gshare:i=12,h=12"} {
		for _, lag := range []int{0, 5, 1 << 15} {
			p, q := zoo.MustNew(spec), zoo.MustNew(spec)
			sim.RunDelayed(p, mem, lag)
			runDelayedLoop(q, mem, lag)
			if got, want := sim.Run(p, mem), sim.Run(q, mem); got != want {
				t.Errorf("%s at lag %d: second run %+v, after the loop %+v", spec, lag, got, want)
			}
		}
	}
}

// TestRunDelayedDamagedColumnar: a columnar source whose second block
// passes its checksum but does not decode makes RunDelayed panic with the
// typed decode error, exactly as Run does.
func TestRunDelayedDamagedColumnar(t *testing.T) {
	recs := append([]trace.Record(nil), suiteTraces()[0].Records()[:3000]...)
	// The writer is faithful, so a static id beyond the declared count
	// in block 1 (records 1024..2047) is written under an honest CRC and
	// refused only by the block decoder.
	recs[1500].Static = 1 << 20
	c := columnarize(t, trace.NewMemory("damaged", 1<<10, recs), 1024)
	engines := map[string]func(predictor.Predictor){
		"Run":        func(p predictor.Predictor) { sim.Run(p, c) },
		"RunDelayed": func(p predictor.Predictor) { sim.RunDelayed(p, c, 3) },
	}
	for name, run := range engines {
		v := recovered(func() { run(zoo.MustNew("bimode:b=11")) })
		err, _ := v.(error)
		var de *trace.ColumnarDecodeError
		if !errors.As(err, &de) || de.Block != 1 {
			t.Errorf("%s panicked with %v, want a *trace.ColumnarDecodeError in block 1", name, v)
		}
	}
}

// recovered runs f and returns the value it panicked with, or nil.
func recovered(f func()) (v any) {
	defer func() { v = recover() }()
	f()
	return nil
}
