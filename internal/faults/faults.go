// Package faults provides deterministic, seed-driven fault injectors for
// exercising the simulation runtime's failure paths: corrupted and
// truncated traces, panicking jobs and artificial stalls. Every injector
// is a plain wrapper around the interface the runtime already consumes
// (trace.Source), so faults flow through exactly the code paths real
// failures would — panic recovery in the scheduler, cooperative
// cancellation in MaterializeContext — and the chaos suite can assert the
// runtime's contract: a clean partial report or a resumable checkpoint,
// never a hang or silent data loss.
//
// Determinism is the point. Given the same seed and the same grid, a
// chaos schedule injects byte-for-byte the same faults, so a failing seed
// from CI reproduces locally with no further machinery. Injectors
// therefore take explicit positions and counts rather than rolling dice
// internally; the dice live in the chaos test's schedule builder.
//
// Every injected fault increments the sim_faults_injected expvar, which
// the chaos test reads to confirm its schedule fired.
package faults

import (
	"bytes"
	"context"
	"expvar"
	"fmt"
	"time"

	"bimode/internal/trace"
)

// faultsInjected counts fault activations process-wide: one per stream
// truncation, injected panic, stall pause and corrupted trace decode.
var faultsInjected = expvar.NewInt("sim_faults_injected")

// wrap is the common base of the source injectors: it preserves the
// wrapped source's identity (name, static count) while deliberately NOT
// forwarding the optional Batched/Sized capabilities, so the runtime
// treats an injected source like any other streaming generator and
// materializes it through the cancelable path.
type wrap struct{ src trace.Source }

func (w wrap) Name() string     { return w.src.Name() }
func (w wrap) StaticCount() int { return w.src.StaticCount() }

// Truncate returns a source that ends src's stream after n records,
// modeling a trace file cut short. n <= 0 yields an empty stream; n
// beyond the trace length yields the whole trace (and injects nothing).
func Truncate(src trace.Source, n int) trace.Source {
	return &truncateSource{wrap{src}, n}
}

type truncateSource struct {
	wrap
	n int
}

func (s *truncateSource) Stream() trace.Stream {
	return &truncateStream{st: s.src.Stream(), left: s.n}
}

type truncateStream struct {
	st   trace.Stream
	left int
}

func (s *truncateStream) Next() (trace.Record, bool) {
	if s.left <= 0 {
		if _, more := s.st.Next(); more {
			faultsInjected.Add(1) // records existed beyond the cut
		}
		return trace.Record{}, false
	}
	s.left--
	return s.st.Next()
}

// PanicAfter returns a source whose streams panic with msg after yielding
// n records, modeling a crashing workload generator. The panic surfaces
// through the scheduler's per-job recovery as a Result.Err, leaving the
// rest of the suite to finish.
func PanicAfter(src trace.Source, n int, msg string) trace.Source {
	return &panicSource{wrap{src}, n, msg}
}

type panicSource struct {
	wrap
	n   int
	msg string
}

func (s *panicSource) Stream() trace.Stream {
	return &panicStream{st: s.src.Stream(), left: s.n, msg: s.msg}
}

type panicStream struct {
	st   trace.Stream
	left int
	msg  string
}

func (s *panicStream) Next() (trace.Record, bool) {
	if s.left <= 0 {
		faultsInjected.Add(1)
		panic(fmt.Sprintf("faults: injected panic: %s", s.msg))
	}
	s.left--
	return s.st.Next()
}

// Stall returns a source whose streams pause for d before every every-th
// record, modeling a slow or intermittently wedged generator. Stalls
// change timing only, never records: a stalled run must produce exactly
// the un-stalled counts. Stall's pauses are uninterruptible sleeps; use
// StallContext when the consumer holds a cancelable context and must not
// wait out a stall already in progress.
func Stall(src trace.Source, every int, d time.Duration) trace.Source {
	return StallContext(context.Background(), src, every, d)
}

// StallContext is Stall bound to a context: a pause in progress unblocks
// promptly when ctx is canceled, and the interrupted stream surfaces
// ctx's error (wrapped, via panic) instead of silently ending short —
// truncation is Truncate's fault class, not Stall's. The panic lands in
// the scheduler's per-job recovery as the cell's Result.Err with the
// context sentinel intact, and TestStallContextCancel pins the unblock
// bound.
func StallContext(ctx context.Context, src trace.Source, every int, d time.Duration) trace.Source {
	if every < 1 {
		every = 1
	}
	return &stallSource{wrap{src}, ctx, every, d}
}

type stallSource struct {
	wrap
	ctx   context.Context
	every int
	d     time.Duration
}

func (s *stallSource) Stream() trace.Stream {
	return &stallStream{st: s.src.Stream(), ctx: s.ctx, every: s.every, d: s.d}
}

type stallStream struct {
	st    trace.Stream
	ctx   context.Context
	every int
	d     time.Duration
	n     int
}

func (s *stallStream) Next() (trace.Record, bool) {
	if s.n%s.every == 0 {
		faultsInjected.Add(1)
		if !sleepUnless(s.ctx, s.d) {
			panic(fmt.Errorf("faults: stall interrupted: %w", s.ctx.Err()))
		}
	}
	s.n++
	return s.st.Next()
}

// sleepUnless sleeps for d, returning false early if ctx is canceled
// first. A context that can never cancel sleeps plainly, timer-free.
func sleepUnless(ctx context.Context, d time.Duration) bool {
	if ctx.Done() == nil {
		time.Sleep(d)
		return true
	}
	if err := ctx.Err(); err != nil {
		return false
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// Corrupt returns a source that round-trips src through the BMC1 trace
// format with the byte at offset pos (mod the encoded length, past the
// magic) flipped, modeling on-disk corruption. The header and per-block
// CRCs make every such flip detectable, so a corrupted source always
// fails and never yields an altered trace: its stream panics with an
// error wrapping the typed *trace.ColumnarDecodeError, which the
// scheduler's per-job recovery turns into Result.Err. The outcome is
// computed once, on first use, and is deterministic in (src, pos).
func Corrupt(src trace.Source, pos int64) trace.Source {
	return &corruptSource{wrap: wrap{src}, pos: pos}
}

type corruptSource struct {
	wrap
	pos    int64
	decErr error
}

func (s *corruptSource) decode() {
	if s.decErr != nil {
		return
	}
	var buf bytes.Buffer
	if err := trace.WriteColumnar(&buf, trace.Materialize(s.src)); err != nil {
		s.decErr = err
		return
	}
	data := buf.Bytes()
	// Skip the 4-byte magic: flipping it models not-a-trace-at-all, which
	// the loader rejects before any checksum.
	at := 4 + s.pos%int64(len(data)-4)
	data[at] ^= 0x40
	faultsInjected.Add(1)
	if _, err := trace.Decode(data); err != nil {
		s.decErr = err
		return
	}
	// A flip that decodes cleanly is exactly the wrong-answer outcome the
	// format rules out; report it as its own loud failure rather than
	// serving the records.
	s.decErr = fmt.Errorf("faults: corruption at byte %d went undetected", at)
}

func (s *corruptSource) Stream() trace.Stream {
	s.decode()
	panic(fmt.Errorf("faults: corrupted trace %q: %w", s.src.Name(), s.decErr))
}
