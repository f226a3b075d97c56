package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"testing"
)

// Crafted-block tests for the block decoder's error paths. The writer
// is faithful, so these files are built by hand: each block's streams go
// in verbatim under an honest CRC, so OpenColumnar accepts the file and
// only the block decoder can refuse a block.

// craftedBlock is one block's record count and raw column streams.
type craftedBlock struct {
	count    int
	pcs, sts []byte
}

// craftColumnar builds a BMC1 file of the given blocks, each followed by
// an all-taken outcome column and its checksum. It returns the file and
// the byte offsets of each block's PC and static streams.
func craftColumnar(t *testing.T, statics, blockSize int, blocks []craftedBlock) (data []byte, pcOff, stOff []int) {
	t.Helper()
	total := 0
	for _, b := range blocks {
		total += b.count
	}
	head := binary.AppendUvarint(nil, uint64(statics))
	head = binary.AppendUvarint(head, uint64(total))
	head = binary.AppendUvarint(head, uint64(blockSize))
	head = binary.AppendUvarint(head, uint64(len("crafted")))
	head = append(head, "crafted"...)
	data = append([]byte(columnarMagic), head...)
	data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(head))
	for _, b := range blocks {
		start := len(data)
		data = binary.AppendUvarint(data, uint64(b.count))
		data = binary.AppendUvarint(data, uint64(len(b.pcs)))
		data = binary.AppendUvarint(data, uint64(len(b.sts)))
		pcOff = append(pcOff, len(data))
		data = append(data, b.pcs...)
		stOff = append(stOff, len(data))
		data = append(data, b.sts...)
		for range (b.count + 7) / 8 {
			data = append(data, 0xff)
		}
		data = binary.LittleEndian.AppendUint32(data, crc32.ChecksumIEEE(data[start:]))
	}
	return data, pcOff, stOff
}

// goodBlock is a clean three-record block: PCs 4, 8, 12 (deltas of the
// rotated PC: 8 each, zig-zagged to 16) at sites 0, 1, 2.
var goodBlock = craftedBlock{count: 3, pcs: []byte{16, 16, 16}, sts: []byte{0, 1, 2}}

// craftedDamage lists one malformed middle block per decoder error path,
// with the error the decoder must report: the stream the damage is in,
// the damaged field's position in that stream, and the error text after
// the location.
var craftedDamage = []struct {
	name   string
	block  craftedBlock
	static bool // the damage is in the static stream, not the PC stream
	at     int
	text   string
}{
	{"pc varint runs off its stream", craftedBlock{3, []byte{16, 16, 0x80}, []byte{0, 1, 2}},
		false, 2, "reading pc delta 2: unexpected EOF"},
	{"11-byte pc varint", craftedBlock{3, []byte{16, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 16}, []byte{0, 1, 2}},
		false, 1, "reading pc delta 1: trace: malformed trace data: varint overflows uint64"},
	{"unconsumed pc bytes", craftedBlock{3, []byte{16, 16, 16, 16}, []byte{0, 1, 2}},
		false, 3, "trace: malformed trace data: 1 unconsumed pc stream bytes"},
	{"static id equal to StaticCount", craftedBlock{3, []byte{16, 16, 16}, []byte{0, 1, 3}},
		true, 2, "trace: malformed trace data: site 3 >= static count 3"},
	{"unconsumed static bytes", craftedBlock{3, []byte{16, 16, 16}, []byte{0, 1, 2, 0}},
		true, 3, "trace: malformed trace data: 1 unconsumed static stream bytes"},
}

// drainStream reads bs to its end or its first error, returning the
// records before it.
func drainStream(bs BlockStream) ([]Record, error) {
	var out []Record
	for {
		recs, err := bs.NextBlock()
		if err != nil {
			return out, err
		}
		if recs == nil {
			return out, nil
		}
		out = append(out, recs...)
	}
}

// TestColumnarCraftedDamage: each malformed block, between two clean
// ones, passes OpenColumnar and fails at the block decoder with a
// *ColumnarDecodeError naming block 1, the damaged field's first byte
// and today's error text, unwrapping to ErrBadFormat or
// io.ErrUnexpectedEOF. BranchBlocks reports the same error on every
// pass: a block that never decoded cleanly is never decoded without its
// static column, however many passes have checked the blocks before it.
func TestColumnarCraftedDamage(t *testing.T) {
	for _, tc := range craftedDamage {
		t.Run(tc.name, func(t *testing.T) {
			data, pcOff, stOff := craftColumnar(t, 3, 3, []craftedBlock{goodBlock, tc.block, goodBlock})
			c, err := OpenColumnar(data)
			if err != nil {
				t.Fatalf("OpenColumnar refused a file with honest checksums: %v", err)
			}
			off := pcOff[1] + tc.at
			if tc.static {
				off = stOff[1] + tc.at
			}
			want := fmt.Sprintf("trace: decoding columnar block 1 at byte %d: %s", off, tc.text)
			check := func(pass string, bs BlockStream) {
				t.Helper()
				recs, err := drainStream(bs)
				var dec *ColumnarDecodeError
				if !errors.As(err, &dec) {
					t.Fatalf("%s: got %v, want a *ColumnarDecodeError", pass, err)
				}
				if dec.Block != 1 || dec.Offset != int64(off) || err.Error() != want {
					t.Fatalf("%s: block %d, offset %d, %q; want block 1, offset %d, %q",
						pass, dec.Block, dec.Offset, err, off, want)
				}
				if !errors.Is(err, ErrBadFormat) && !errors.Is(err, io.ErrUnexpectedEOF) {
					t.Fatalf("%s: %v unwraps to neither ErrBadFormat nor io.ErrUnexpectedEOF", pass, err)
				}
				if len(recs) != goodBlock.count {
					t.Fatalf("%s: %d records before the error, want block 0's %d", pass, len(recs), goodBlock.count)
				}
			}
			check("BlockStream", c.BlockStream())
			for pass := range 3 {
				check(fmt.Sprintf("BranchBlocks pass %d", pass), BranchBlocks(c))
			}
			check("BlockStream after BranchBlocks", c.BlockStream())
			if !c.checked[0].Load() || c.checked[1].Load() {
				t.Fatalf("checked flags %v, %v for a clean and a damaged block; want true, false",
					c.checked[0].Load(), c.checked[1].Load())
			}
		})
	}
}

// TestBranchBlocksFirstPassOnDamage: on a handle no pass has touched,
// the first stream to reach a damaged block is a BranchBlocks stream,
// and it still reports the block's error, for damage in either column.
func TestBranchBlocksFirstPassOnDamage(t *testing.T) {
	for _, tc := range craftedDamage {
		data, _, _ := craftColumnar(t, 3, 3, []craftedBlock{goodBlock, tc.block, goodBlock})
		c, err := OpenColumnar(data)
		if err != nil {
			t.Fatalf("%s: OpenColumnar: %v", tc.name, err)
		}
		_, first := drainStream(BranchBlocks(c))
		_, full := drainStream(c.BlockStream())
		if first == nil || full == nil || first.Error() != full.Error() {
			t.Fatalf("%s: BranchBlocks first pass %v, BlockStream %v; want the same error", tc.name, first, full)
		}
	}
}

// TestBranchBlocksProjection: over a clean file, every BranchBlocks pass
// yields BlockStream's PCs and directions, block for block, whether it
// runs before, beside or after full passes; full and projected drains
// run concurrently here (run with -race).
func TestBranchBlocksProjection(t *testing.T) {
	m := synthetic("projection", 5000)
	c, err := OpenColumnar(encodeColumnar(t, m, 256))
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	same := func(got []Record) error {
		if len(got) != m.Len() {
			return fmt.Errorf("drained %d records, want %d", len(got), m.Len())
		}
		for i, r := range got {
			if want := m.recs[i]; r.PC != want.PC || r.Taken != want.Taken {
				return fmt.Errorf("record %d: pc %#x taken %v, want pc %#x taken %v", i, r.PC, r.Taken, want.PC, want.Taken)
			}
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bs := c.BlockStream()
			if g%2 == 1 {
				bs = BranchBlocks(c)
			}
			recs, err := drainStream(bs)
			if err == nil {
				err = same(recs)
			}
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for b := range c.NumBlocks() {
		if !c.checked[b].Load() {
			t.Fatalf("block %d unchecked after clean full passes", b)
		}
	}
	recs, err := drainStream(BranchBlocks(c))
	if err == nil {
		err = same(recs)
	}
	if err != nil {
		t.Fatalf("projected pass over checked blocks: %v", err)
	}
}
