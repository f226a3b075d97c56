// Package trace defines the branch-trace representation shared by the
// workload generators, the simulator, and the analysis tooling, together
// with a compact binary on-disk format.
//
// The paper's traces (IBS-Ultrix hardware-monitor traces and SPEC CINT95
// ATOM traces) record, per dynamic conditional branch, the branch address
// and its outcome; that is exactly what a Record carries. Branch sites
// additionally carry a stable dense identifier so the Section 4 analysis
// can attribute substreams to static branches without hashing PCs.
package trace

import (
	"context"
	"sync"
)

// Record is one dynamic conditional branch.
type Record struct {
	// PC is the branch instruction address. Word-aligned; bit 63 may carry
	// the backward-branch flag consumed by the static BTFN predictor (see
	// baselines.BackwardBit) and is masked off by table indexing because
	// indices use low bits only.
	PC uint64
	// Static is the dense identifier of the static branch site this
	// dynamic branch belongs to, in [0, trace's StaticCount).
	Static uint32
	// Taken is the resolved branch direction.
	Taken bool
}

// Stream is a source of dynamic branches. Implementations are single-use
// and not safe for concurrent use; obtain a fresh Stream per simulation
// from a Source.
type Stream interface {
	// Next returns the next dynamic branch. ok is false when the stream is
	// exhausted.
	Next() (rec Record, ok bool)
}

// Batched is the optional Source capability behind the simulator's fast
// path: a source whose entire trace is available as one flat slice, so a
// simulation loop can range over records instead of paying an interface
// call per branch. *Memory implements it. The returned slice must be
// identical to what Stream would produce and must not be mutated by
// callers.
type Batched interface {
	// Records returns the full trace in stream order.
	Records() []Record
}

// Sized is the optional Source capability of knowing the trace length
// without draining a stream; Materialize uses it to preallocate exactly.
type Sized interface {
	// Len returns the number of dynamic branches a fresh Stream yields.
	Len() int
}

// Source produces identical fresh Streams on demand, allowing parallel
// sweeps to replay one workload many times.
type Source interface {
	// Name identifies the workload, e.g. "gcc".
	Name() string
	// StaticCount returns the number of static branch sites that can
	// appear in the stream (the bound on Record.Static).
	StaticCount() int
	// Stream returns a fresh stream positioned at the first branch. The
	// stream contents are identical on every call.
	Stream() Stream
}

// SliceStream adapts an in-memory record slice to the Stream interface.
type SliceStream struct {
	recs []Record
	pos  int
}

// NewSliceStream returns a Stream over recs.
func NewSliceStream(recs []Record) *SliceStream { return &SliceStream{recs: recs} }

// Next implements Stream.
func (s *SliceStream) Next() (Record, bool) {
	if s.pos >= len(s.recs) {
		return Record{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

// Memory is an in-memory Source: a named, fully materialized trace.
type Memory struct {
	name    string
	statics int
	recs    []Record
}

// NewMemory returns an in-memory Source over recs. statics must bound
// every Record.Static.
func NewMemory(name string, statics int, recs []Record) *Memory {
	return &Memory{name: name, statics: statics, recs: recs}
}

// Name implements Source.
func (m *Memory) Name() string { return m.name }

// StaticCount implements Source.
func (m *Memory) StaticCount() int { return m.statics }

// Stream implements Source.
func (m *Memory) Stream() Stream { return NewSliceStream(m.recs) }

// Len returns the number of dynamic branches in the trace.
func (m *Memory) Len() int { return len(m.recs) }

// Records exposes the underlying records; callers must not mutate them.
func (m *Memory) Records() []Record { return m.recs }

// Materialize drains a Source into an in-memory trace, which is cheaper to
// replay than regenerating. Traces at this repository's default scale
// (2M branches x 16 bytes) fit comfortably in memory. A *Memory source is
// returned as-is (it is already materialized and immutable); sources
// implementing Sized get an exact preallocation instead of growth
// doublings.
func Materialize(src Source) *Memory {
	m, err := MaterializeContext(context.Background(), src)
	if err != nil {
		// The background context never cancels, so this fires only for a
		// damaged Blocked source — the same panic its Stream would raise.
		panic(err)
	}
	return m
}

// MaterializeContext is Materialize with cooperative cancellation: while
// draining the source it checks ctx between blocks (see Blocks) and
// abandons the materialization with ctx's error, so a canceled or
// deadline-bounded suite is not stuck behind an expensive (or stalled)
// generator.
func MaterializeContext(ctx context.Context, src Source) (*Memory, error) {
	if m, ok := src.(*Memory); ok {
		return m, nil
	}
	capacity := 1 << 20
	if s, ok := src.(Sized); ok {
		if n := s.Len(); n >= 0 {
			capacity = n
		}
	}
	recs := make([]Record, 0, capacity)
	// One bulk append per block, with the cooperative cancellation check
	// at block granularity.
	bs := Blocks(src)
	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		batch, err := bs.NextBlock()
		if err != nil {
			return nil, err
		}
		if batch == nil {
			break
		}
		recs = append(recs, batch...)
	}
	return NewMemory(src.Name(), src.StaticCount(), recs), nil
}

// batchRecords is the most records Blocks puts in one block of a source
// that has no blocks of its own. It is the engine's cooperative-
// cancellation granularity: consumers check their context once per block.
const batchRecords = 1 << 16

// Blocks returns a fresh single-use BlockStream over any Source, the one
// place a trace is cut into record slices:
//
//   - a Batched source (a *Memory) yields zero-copy sub-slices of at most
//     batchRecords records;
//   - a Blocked source (a *Columnar) yields its own decoded blocks;
//   - any other source fills one batchRecords buffer from Next, reused
//     for every block.
//
// Every record of the source arrives exactly once, in stream order. A
// block is valid only until the next NextBlock call.
func Blocks(src Source) BlockStream {
	if b, ok := src.(Batched); ok {
		return &sliceBlocks{recs: b.Records()}
	}
	if bl, ok := src.(Blocked); ok {
		return bl.BlockStream()
	}
	return &streamBlocks{st: src.Stream()}
}

// BranchBlocks is Blocks for a consumer that reads only each record's PC
// and Taken, as a predictor does. Over a *Columnar, a block that some
// earlier full decode has checked (every site id below the static count)
// is decoded without its static column, and its records' Static is
// unspecified; a block not yet checked is decoded whole, so a damaged
// one fails with the same *ColumnarDecodeError on every pass. Any other
// source gets Blocks(src).
func BranchBlocks(src Source) BlockStream {
	if c, ok := src.(*Columnar); ok {
		return &columnarBlocks{c: c, branches: true}
	}
	return Blocks(src)
}

// sliceBlocks cuts a materialized trace into batchRecords sub-slices.
type sliceBlocks struct{ recs []Record }

// NextBlock implements BlockStream.
func (b *sliceBlocks) NextBlock() ([]Record, error) {
	n := min(len(b.recs), batchRecords)
	if n == 0 {
		return nil, nil
	}
	blk := b.recs[:n:n]
	b.recs = b.recs[n:]
	return blk, nil
}

// streamBlocks buffers a record stream into batchRecords blocks, in a
// buffer borrowed from streamBufs and returned once the stream is
// drained. The stream is not called again once it reports its end.
type streamBlocks struct {
	st  Stream
	buf *[]Record
}

// NextBlock implements BlockStream.
func (b *streamBlocks) NextBlock() ([]Record, error) {
	if b.st == nil {
		if b.buf != nil {
			streamBufs.Put(b.buf)
			b.buf = nil
		}
		return nil, nil
	}
	if b.buf == nil {
		b.buf = streamBufs.Get().(*[]Record)
	}
	buf, st := *b.buf, b.st
	n := 0
	for n < len(buf) {
		r, ok := st.Next()
		if !ok {
			b.st = nil
			break
		}
		buf[n] = r
		n++
	}
	if n == 0 {
		return b.NextBlock()
	}
	return buf[:n], nil
}

// streamBufs recycles the block buffers of stream-only sources, so that
// materializing a suite of generators does not allocate a fresh 1 MiB
// buffer per trace.
var streamBufs = sync.Pool{New: func() any {
	buf := make([]Record, batchRecords)
	return &buf
}}
