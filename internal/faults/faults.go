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

// Corrupt returns a source that round-trips src through the binary trace
// format with the payload byte at offset pos (mod the encoded length,
// past the magic) flipped, modeling on-disk corruption. Depending on
// where the flip lands the decode either fails — the stream panics with
// the decode error, surfacing as a Result.Err — or yields a valid trace
// with altered records; both outcomes are legitimate corruption
// behaviors the runtime must survive. The corrupted decode is computed
// once, on first use, and is deterministic in (src, pos).
func Corrupt(src trace.Source, pos int64) trace.Source {
	return &corruptSource{wrap: wrap{src}, pos: pos}
}

type corruptSource struct {
	wrap
	pos    int64
	mem    *trace.Memory
	decErr error
}

func (s *corruptSource) decode() {
	if s.mem != nil || s.decErr != nil {
		return
	}
	var buf bytes.Buffer
	if err := trace.Write(&buf, trace.Materialize(s.src)); err != nil {
		s.decErr = err
		return
	}
	data := buf.Bytes()
	// Skip the 4-byte magic: flipping it models a different failure (not a
	// trace at all) that the loader rejects before any record machinery.
	if len(data) > 4 {
		i := 4 + int(s.pos%int64(len(data)-4))
		data[i] ^= 0x40
		faultsInjected.Add(1)
	}
	s.mem, s.decErr = trace.Read(bytes.NewReader(data))
}

func (s *corruptSource) Stream() trace.Stream {
	s.decode()
	if s.decErr != nil {
		panic(fmt.Errorf("faults: corrupted trace %q: %w", s.src.Name(), s.decErr))
	}
	return s.mem.Stream()
}

// StaticCount defers to the decoded trace when it survives decoding,
// since corruption may legitimately alter the static count header.
func (s *corruptSource) StaticCount() int {
	s.decode()
	if s.decErr == nil {
		return s.mem.StaticCount()
	}
	return s.src.StaticCount()
}

// CorruptColumnar is Corrupt for the checksummed columnar format: it
// round-trips src through trace.WriteColumnar with the byte at offset
// pos (mod the encoded length, past the magic) flipped. Where row-format
// corruption may silently yield altered records, the columnar format's
// header and per-block CRCs make every flip detectable, so this injector
// carries the stronger contract the chaos suite asserts: a corrupted
// columnar source ALWAYS surfaces a typed decode error (the stream
// panics, landing in the scheduler's per-job recovery as Result.Err) and
// NEVER an altered trace. The outcome is deterministic in (src, pos).
func CorruptColumnar(src trace.Source, pos int64) trace.Source {
	return &corruptColumnarSource{wrap: wrap{src}, pos: pos}
}

type corruptColumnarSource struct {
	wrap
	pos    int64
	decErr error
}

func (s *corruptColumnarSource) decode() {
	if s.decErr != nil {
		return
	}
	var buf bytes.Buffer
	if err := trace.WriteColumnar(&buf, trace.Materialize(s.src)); err != nil {
		s.decErr = err
		return
	}
	data := buf.Bytes()
	// Skip the 4-byte magic, as Corrupt does: flipping it models
	// not-a-trace-at-all, which the loader rejects before any checksum.
	if len(data) > 4 {
		i := 4 + int(s.pos%int64(len(data)-4))
		data[i] ^= 0x40
		faultsInjected.Add(1)
	}
	c, err := trace.OpenColumnar(data)
	if err == nil {
		// The index validated; the flip must still be caught at decode.
		bs := c.BlockStream()
		for err == nil {
			var recs []trace.Record
			recs, err = bs.NextBlock()
			if recs == nil && err == nil {
				// A flip that decodes cleanly end-to-end is exactly the
				// wrong-answer outcome the format rules out; report it as
				// its own loud failure rather than serving the records.
				err = fmt.Errorf("faults: columnar corruption at byte %d went undetected", s.pos)
			}
		}
	}
	s.decErr = err
}

func (s *corruptColumnarSource) Stream() trace.Stream {
	s.decode()
	panic(fmt.Errorf("faults: corrupted columnar trace %q: %w", s.src.Name(), s.decErr))
}
