package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync/atomic"
)

// Columnar trace format ("BMC1"), the repository's one binary trace
// format, built for batch iteration: the decoder hands whole blocks of
// records to the engine (the shape the RunBatch kernels consume) instead
// of paying an interface call and a varint state machine per record.
//
// Layout (all integers are uvarints unless stated):
//
//	header:  magic "BMC1" | staticCount | recordCount | blockSize |
//	         name length | name bytes | 4-byte LE CRC32-IEEE of the
//	         header bytes after the magic
//	blocks:  ceil(recordCount/blockSize) blocks; every block holds
//	         exactly blockSize records except the last, which holds the
//	         remainder (>= 1). Per block:
//	           count | pcLen | stLen
//	           pc stream   (pcLen bytes):  count zig-zag varint deltas of
//	                                       the PC rotated left one bit;
//	                                       the delta chain restarts at 0
//	                                       each block, so blocks decode
//	                                       independently
//	           static stream (stLen bytes): count uvarint static site ids
//	           outcome bit-vector (ceil(count/8) bytes): bit j, LSB
//	                                       first, is record j's direction
//	           footer: 4-byte LE CRC32-IEEE of the block from its count
//	                   varint through the outcome bytes
//
// Splitting the columns means each stream is homogeneous — PC deltas
// compress to 1-2 bytes in branch-clustered code, static ids to 1-2
// bytes, outcomes to one bit — and the outcome column is consumed
// directly as a bit-vector with no per-record branch. PCs are rotated
// left one bit before delta encoding because bit 63 carries the
// backward-branch flag: rotating moves the flag into bit 0, so two
// nearby addresses that differ only in the flag still delta to a 1-2
// byte varint instead of a 10-byte one. The per-block CRCs
// (plus the header CRC and the exact-count structural rules) make every
// single-byte corruption detectable: a columnar decode either returns
// exactly what was written or a typed *ColumnarDecodeError, never a
// silently wrong trace. OpenColumnar validates structure and checksums
// up front in one cheap pass without decoding payloads, so iteration
// over a validated file does not re-verify per pass.
//
// The one check the CRCs cannot stand in for is the static column's
// range rule (a site id below the header's static count), which a
// crafted file can break under honest checksums. A pass decodes the
// whole block, static column included, until some pass has decoded that
// block cleanly; after that, BranchBlocks streams skip its static column
// (see columnarBlocks.NextBlock).

// columnarMagic opens every trace file; anything else is refused at
// byte 0.
const columnarMagic = "BMC1"

// ErrBadFormat reports a malformed or truncated trace file.
var ErrBadFormat = errors.New("trace: malformed trace data")

// DefaultColumnarBlock is the records-per-block the writers use unless
// told otherwise: 4096 records keep a block's three streams (~12 KB)
// inside L1/L2 while amortizing the per-block bookkeeping to noise.
const DefaultColumnarBlock = 4096

// maxColumnarBlock bounds the block size a file may declare; beyond it
// the per-block scratch buffer would defeat the streaming design.
const maxColumnarBlock = 1 << 20

// ColumnarDecodeError locates a columnar-decoding failure: the index of
// the block being decoded (headerBlock, -1, while still in the file
// header) and the absolute byte offset of the field where decoding
// stopped. It wraps the underlying cause, so errors.Is sees ErrBadFormat
// and the io sentinels through it.
type ColumnarDecodeError struct {
	// Block is the zero-based index of the block being decoded, or -1 if
	// decoding failed in the file header.
	Block int64
	// Offset is the byte offset of the first byte of the field whose
	// decode or validation failed — the position of the damage.
	Offset int64
	// Err is the underlying cause.
	Err error
}

// headerBlock is the ColumnarDecodeError.Block value for failures in the
// file header, before any block.
const headerBlock = -1

func (e *ColumnarDecodeError) Error() string {
	if e.Block == headerBlock {
		return fmt.Sprintf("trace: decoding columnar header at byte %d: %v", e.Offset, e.Err)
	}
	return fmt.Sprintf("trace: decoding columnar block %d at byte %d: %v", e.Block, e.Offset, e.Err)
}

func (e *ColumnarDecodeError) Unwrap() error { return e.Err }

// Blocked is the optional Source capability behind block-batch
// iteration: the trace is available as a sequence of ready-to-run record
// slices without materializing the whole thing first. sim.Run consumes
// it with one RunBatch-shaped call per block, and Materialize drains it
// block-at-a-time instead of record-at-a-time. *Columnar implements it.
type Blocked interface {
	// BlockStream returns a fresh single-use block iterator positioned at
	// the first block. Iterators from separate calls are independent and
	// may be used concurrently.
	BlockStream() BlockStream
}

// BlockStream is a single pass over a trace in record batches.
type BlockStream interface {
	// NextBlock returns the next block of records, in stream order. The
	// returned slice is valid only until the next NextBlock call (the
	// iterator reuses its scratch buffer). It returns (nil, nil) when the
	// trace is exhausted and a *ColumnarDecodeError if the underlying
	// data is damaged.
	NextBlock() ([]Record, error)
}

// WriteColumnar serializes a materialized trace to w in the columnar
// block format with DefaultColumnarBlock records per block.
func WriteColumnar(w io.Writer, m *Memory) error {
	return WriteColumnarBlocks(w, m, DefaultColumnarBlock)
}

// WriteColumnarBlocks is WriteColumnar with an explicit block size in
// records, for tests and for tools trading block overhead against
// iteration granularity.
func WriteColumnarBlocks(w io.Writer, m *Memory, blockSize int) error {
	if blockSize < 1 || blockSize > maxColumnarBlock {
		return fmt.Errorf("trace: columnar block size %d outside [1, %d]", blockSize, maxColumnarBlock)
	}
	var scratch [binary.MaxVarintLen64]byte
	// Header: magic, then the CRC-covered tail.
	head := make([]byte, 0, 64+len(m.name))
	head = binary.AppendUvarint(head, uint64(m.statics))
	head = binary.AppendUvarint(head, uint64(len(m.recs)))
	head = binary.AppendUvarint(head, uint64(blockSize))
	head = binary.AppendUvarint(head, uint64(len(m.name)))
	head = append(head, m.name...)
	if _, err := io.WriteString(w, columnarMagic); err != nil {
		return err
	}
	if _, err := w.Write(head); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(scratch[:4], crc32.ChecksumIEEE(head))
	if _, err := w.Write(scratch[:4]); err != nil {
		return err
	}

	// Blocks. The three streams are built per block and flushed with the
	// count/length prefix and the CRC footer.
	var pcs, sts, block []byte
	for base := 0; base < len(m.recs); base += blockSize {
		recs := m.recs[base:]
		if len(recs) > blockSize {
			recs = recs[:blockSize]
		}
		pcs, sts = pcs[:0], sts[:0]
		prevRot := uint64(0)
		for _, r := range recs {
			rot := r.PC<<1 | r.PC>>63
			pcs = binary.AppendUvarint(pcs, zigzag(int64(rot-prevRot)))
			prevRot = rot
			sts = binary.AppendUvarint(sts, uint64(r.Static))
		}
		block = block[:0]
		block = binary.AppendUvarint(block, uint64(len(recs)))
		block = binary.AppendUvarint(block, uint64(len(pcs)))
		block = binary.AppendUvarint(block, uint64(len(sts)))
		block = append(block, pcs...)
		block = append(block, sts...)
		outOff := len(block)
		block = append(block, make([]byte, (len(recs)+7)/8)...)
		for j, r := range recs {
			if r.Taken {
				block[outOff+j>>3] |= 1 << (j & 7)
			}
		}
		block = binary.LittleEndian.AppendUint32(block, crc32.ChecksumIEEE(block))
		if _, err := w.Write(block); err != nil {
			return err
		}
	}
	return nil
}

// blockMeta indexes one validated block inside a columnar file.
type blockMeta struct {
	start  int // offset of the count varint (CRC coverage starts here)
	pcOff  int // offset of the pc delta stream
	stOff  int // offset of the static id stream
	outOff int // offset of the outcome bit-vector
	crcOff int // offset of the CRC footer; also end of CRC coverage
	count  int // records in this block
}

// Columnar is a validated columnar trace file held as one byte slice. It
// implements Source (record streaming for every legacy consumer), Sized,
// and Blocked (batch iteration for the engine); the backing bytes are
// shared, never copied, and all iteration state lives in the iterators,
// so one *Columnar serves any number of concurrent streams.
type Columnar struct {
	name      string
	statics   int
	count     int
	blockSize int
	data      []byte
	blocks    []blockMeta
	// checked[b] is set once a full decode of block b, static column
	// included, has succeeded; a block that fails is never set, so every
	// pass over it decodes it whole and reports the same error.
	checked []atomic.Bool
}

// OpenColumnar validates data as a columnar trace file and returns a
// zero-copy handle over it: the header and every block's structure and
// CRC are checked up front (one pass over the bytes, no payload decode),
// so damage is reported here — as a *ColumnarDecodeError with the block
// index and byte offset — rather than mid-iteration. The caller must not
// mutate data while the Columnar or any of its streams is live.
func OpenColumnar(data []byte) (*Columnar, error) {
	headerErr := func(off int, err error) error {
		return &ColumnarDecodeError{Block: headerBlock, Offset: int64(off), Err: err}
	}
	if len(data) < len(columnarMagic) || string(data[:len(columnarMagic)]) != columnarMagic {
		got := data
		if len(got) > len(columnarMagic) {
			got = got[:len(columnarMagic)]
		}
		return nil, headerErr(0, fmt.Errorf("%w: bad magic %q", ErrBadFormat, got))
	}
	off := len(columnarMagic)
	field := off
	next := func(what string) (uint64, error) {
		field = off
		v, n := binary.Uvarint(data[off:])
		if n <= 0 {
			return 0, headerErr(field, fmt.Errorf("reading %s: %w", what, eofOrBad(n)))
		}
		off += n
		return v, nil
	}
	statics, err := next("static count")
	if err != nil {
		return nil, err
	}
	count, err := next("record count")
	if err != nil {
		return nil, err
	}
	blockSize, err := next("block size")
	if err != nil {
		return nil, err
	}
	if blockSize < 1 || blockSize > maxColumnarBlock {
		return nil, headerErr(field, fmt.Errorf("%w: block size %d outside [1, %d]", ErrBadFormat, blockSize, maxColumnarBlock))
	}
	nameLen, err := next("name length")
	if err != nil {
		return nil, err
	}
	if nameLen > 1<<16 {
		return nil, headerErr(field, fmt.Errorf("%w: unreasonable name length %d", ErrBadFormat, nameLen))
	}
	nameOff := off
	if uint64(len(data)-off) < nameLen {
		return nil, headerErr(nameOff, fmt.Errorf("reading name: %w", io.ErrUnexpectedEOF))
	}
	off += int(nameLen)
	if len(data)-off < 4 {
		return nil, headerErr(off, fmt.Errorf("reading header checksum: %w", io.ErrUnexpectedEOF))
	}
	if got, want := binary.LittleEndian.Uint32(data[off:]), crc32.ChecksumIEEE(data[len(columnarMagic):off]); got != want {
		return nil, headerErr(off, fmt.Errorf("%w: header checksum %08x, computed %08x", ErrBadFormat, got, want))
	}
	off += 4

	c := &Columnar{
		name:      string(data[nameOff : nameOff+int(nameLen)]),
		statics:   int(statics),
		count:     int(count),
		blockSize: int(blockSize),
		data:      data,
	}

	// Index and checksum the blocks. Every block except the last must be
	// exactly full, so a dropped or duplicated block is a structural
	// error even before its CRC is consulted.
	numBlocks := (c.count + c.blockSize - 1) / c.blockSize
	c.blocks = make([]blockMeta, 0, numBlocks)
	remaining := c.count
	for b := 0; b < numBlocks; b++ {
		blockErr := func(at int, err error) error {
			return &ColumnarDecodeError{Block: int64(b), Offset: int64(at), Err: err}
		}
		m := blockMeta{start: off}
		field = off
		bnext := func(what string) (uint64, error) {
			field = off
			v, n := binary.Uvarint(data[off:])
			if n <= 0 {
				return 0, blockErr(field, fmt.Errorf("reading %s: %w", what, eofOrBad(n)))
			}
			off += n
			return v, nil
		}
		bcount, err := bnext("record count")
		if err != nil {
			return nil, err
		}
		want := uint64(c.blockSize)
		if b == numBlocks-1 {
			want = uint64(remaining)
		}
		if bcount != want {
			return nil, blockErr(field, fmt.Errorf("%w: block holds %d records, want %d", ErrBadFormat, bcount, want))
		}
		pcLen, err := bnext("pc stream length")
		if err != nil {
			return nil, err
		}
		stLen, err := bnext("static stream length")
		if err != nil {
			return nil, err
		}
		if pcLen > uint64(bcount)*binary.MaxVarintLen64 || stLen > uint64(bcount)*binary.MaxVarintLen64 {
			return nil, blockErr(field, fmt.Errorf("%w: stream lengths %d/%d exceed %d records", ErrBadFormat, pcLen, stLen, bcount))
		}
		outLen := (int(bcount) + 7) / 8
		m.pcOff = off
		m.stOff = m.pcOff + int(pcLen)
		m.outOff = m.stOff + int(stLen)
		m.crcOff = m.outOff + outLen
		m.count = int(bcount)
		if m.crcOff+4 > len(data) {
			return nil, blockErr(off, fmt.Errorf("reading block payload: %w", io.ErrUnexpectedEOF))
		}
		if got, want := binary.LittleEndian.Uint32(data[m.crcOff:]), crc32.ChecksumIEEE(data[m.start:m.crcOff]); got != want {
			return nil, blockErr(m.crcOff, fmt.Errorf("%w: block checksum %08x, computed %08x", ErrBadFormat, got, want))
		}
		off = m.crcOff + 4
		remaining -= m.count
		c.blocks = append(c.blocks, m)
	}
	c.checked = make([]atomic.Bool, numBlocks)
	if off != len(data) {
		return nil, &ColumnarDecodeError{
			Block:  int64(numBlocks),
			Offset: int64(off),
			Err:    fmt.Errorf("%w: %d trailing bytes after final block", ErrBadFormat, len(data)-off),
		}
	}
	return c, nil
}

// OpenColumnarFile reads path into memory and opens it with OpenColumnar.
func OpenColumnarFile(path string) (*Columnar, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return OpenColumnar(data)
}

// eofOrBad maps binary.Uvarint's failure modes (n == 0 truncation,
// n < 0 overflow) onto the decoder's standard sentinels.
func eofOrBad(n int) error {
	if n < 0 {
		return fmt.Errorf("%w: varint overflows uint64", ErrBadFormat)
	}
	return io.ErrUnexpectedEOF
}

func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Name implements Source.
func (c *Columnar) Name() string { return c.name }

// StaticCount implements Source.
func (c *Columnar) StaticCount() int { return c.statics }

// Len implements Sized: the number of dynamic branches in the trace.
func (c *Columnar) Len() int { return c.count }

// NumBlocks returns the number of on-disk blocks.
func (c *Columnar) NumBlocks() int { return len(c.blocks) }

// BlockSize returns the records-per-block the file was written with.
func (c *Columnar) BlockSize() int { return c.blockSize }

// BlockStream implements Blocked.
func (c *Columnar) BlockStream() BlockStream { return &columnarBlocks{c: c} }

// columnarBlocks is the block iterator: one scratch record buffer,
// reused for every block, refilled by the columnar decode kernel. A
// branches iterator (BranchBlocks) fills only PC and Taken in a block
// that an earlier full decode has checked.
type columnarBlocks struct {
	c        *Columnar
	next     int
	scratch  []Record
	branches bool
}

// NextBlock implements BlockStream.
func (it *columnarBlocks) NextBlock() ([]Record, error) {
	if it.next >= len(it.c.blocks) {
		return nil, nil
	}
	b := it.next
	it.next++
	if it.scratch == nil {
		// No block holds more than the whole trace, whatever block size
		// the header declares.
		it.scratch = make([]Record, min(it.c.blockSize, it.c.count))
	}
	c, m := it.c, it.c.blocks[b]
	if it.branches && c.checked[b].Load() {
		// Static is left as the scratch buffer holds it.
		recs := it.scratch[:m.count]
		if err := decodePCs(c.data, m, int64(b), recs, true); err != nil {
			return nil, err
		}
		return recs, nil
	}
	recs, err := decodeColumnarBlock(c.data, m, int64(b), c.statics, it.scratch)
	if err != nil {
		return nil, err
	}
	c.checked[b].Store(true)
	return recs, nil
}

// columnarBlockErr locates a failure inside block's payload.
func columnarBlockErr(block int64, at int, err error) error {
	return &ColumnarDecodeError{Block: block, Offset: int64(at), Err: err}
}

// decodeColumnarBlock expands one indexed block into scratch. The
// payload bytes already passed the CRC at OpenColumnar, so failures here
// mean a crafted (checksum-consistent but structurally lying) file;
// they are still reported as located errors, never decoded wrong.
//
// This is the columnar hot path, and it is why the columns are split:
// each stream is decoded in its own tight loop over a raw byte slice,
// with the 1- and 2-byte varint cases — which cover branch-clustered PC
// deltas and realistic static-site counts — decoded inline (a load, a
// compare, a shift), falling back to binary.Uvarint only for wide
// values. The outcome column is a shift-and-mask per record, done in the
// static loop. Per-column loops keep each iteration's branch pattern
// uniform, so the per-record cost is a handful of predictable
// instructions.
func decodeColumnarBlock(data []byte, m blockMeta, block int64, statics int, scratch []Record) ([]Record, error) {
	if m.count > len(scratch) {
		scratch = make([]Record, m.count)
	}
	recs := scratch[:m.count]
	if err := decodePCs(data, m, block, recs, false); err != nil {
		return nil, err
	}
	stB := data[m.stOff:m.outOff]
	outB := data[m.outOff:m.crcOff]

	// Static column: uvarint site ids, validated against the header's
	// declared site count.
	maxStatic := uint64(statics)
	j := 0
	for k := range recs {
		field := j // errors anchor at the field's first byte
		var st uint64
		if j+2 <= len(stB) && stB[j]&stB[j+1] < 0x80 {
			b0 := uint64(stB[j])
			cont := b0 >> 7
			st = (b0 & 0x7f) | uint64(stB[j+1])<<7&(-cont)
			j += int(1 + cont)
		} else {
			v, n := binary.Uvarint(stB[j:])
			if n <= 0 {
				return nil, columnarBlockErr(block, m.stOff+j, fmt.Errorf("reading static id %d: %w", k, eofOrBad(n)))
			}
			st = v
			j += n
		}
		if st >= maxStatic {
			return nil, columnarBlockErr(block, m.stOff+field, fmt.Errorf("%w: site %d >= static count %d", ErrBadFormat, st, statics))
		}
		// The outcome bit (LSB first in its column) rides along in the
		// same pass: Static and Taken share a record write this way.
		recs[k].Static = uint32(st)
		recs[k].Taken = outB[k>>3]>>(k&7)&1 != 0
	}
	if j != len(stB) {
		return nil, columnarBlockErr(block, m.stOff+j, fmt.Errorf("%w: %d unconsumed static stream bytes", ErrBadFormat, len(stB)-j))
	}
	return recs, nil
}

// decodePCs decodes a block's PC column into recs, and with taken set
// its outcome column too, in the same loop. taken is loop-invariant, so
// its test costs a predicted branch per record. The full decode leaves
// it off and fills Taken in its static loop: moving the outcome bits
// into this loop made it slower. Without a static loop, one loop over
// both columns is faster than two.
//
// The PCs are zig-zag deltas of the rotated PC, the chain restarting at
// 0 for this block. The ≤2-byte case is decoded branchlessly — the
// varint's length comes out of the continuation bit as an arithmetic
// mask, not a data-dependent branch, because real delta streams mix 1-
// and 2-byte values unpredictably and a mispredict per record would cost
// more than the whole rest of the loop.
func decodePCs(data []byte, m blockMeta, block int64, recs []Record, taken bool) error {
	pcB := data[m.pcOff:m.stOff]
	outB := data[m.outOff:m.crcOff]
	rot := uint64(0)
	i := 0
	for k := range recs {
		var d uint64
		if i+2 <= len(pcB) && pcB[i]&pcB[i+1] < 0x80 {
			b0 := uint64(pcB[i])
			cont := b0 >> 7 // 1 if a second byte follows
			d = (b0 & 0x7f) | uint64(pcB[i+1])<<7&(-cont)
			i += int(1 + cont)
		} else {
			v, n := binary.Uvarint(pcB[i:])
			if n <= 0 {
				return columnarBlockErr(block, m.pcOff+i, fmt.Errorf("reading pc delta %d: %w", k, eofOrBad(n)))
			}
			d = v
			i += n
		}
		rot += uint64(unzigzag(d))
		recs[k].PC = rot>>1 | rot<<63 // undo the writer's rotation
		if taken {
			recs[k].Taken = outB[k>>3]>>(k&7)&1 != 0
		}
	}
	if i != len(pcB) {
		return columnarBlockErr(block, m.pcOff+i, fmt.Errorf("%w: %d unconsumed pc stream bytes", ErrBadFormat, len(pcB)-i))
	}
	return nil
}

// Stream implements Source: record-at-a-time iteration for consumers
// that do not speak blocks, serving from the block decoder's scratch so
// the cost stays one decode per block plus a slice index per record. A
// damaged block (possible only for crafted files — OpenColumnar already
// verified every checksum) panics with the *ColumnarDecodeError, which
// the scheduler's per-job recovery reports as the cell's Result.Err,
// exactly like a generator failing mid-stream.
func (c *Columnar) Stream() Stream {
	return &columnarStream{bs: &columnarBlocks{c: c}}
}

type columnarStream struct {
	bs  *columnarBlocks
	cur []Record
	pos int
}

// Next implements Stream.
func (s *columnarStream) Next() (Record, bool) {
	for s.pos >= len(s.cur) {
		recs, err := s.bs.NextBlock()
		if err != nil {
			panic(err)
		}
		if recs == nil {
			return Record{}, false
		}
		s.cur, s.pos = recs, 0
	}
	r := s.cur[s.pos]
	s.pos++
	return r, true
}
