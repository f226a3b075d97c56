package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"testing"
)

// synthetic builds a deterministic n-record trace exercising the
// encoder's interesting cases: clustered forward/backward PC deltas, the
// bit-63 backward flag, dense static reuse.
func synthetic(name string, n int) *Memory {
	rng := rand.New(rand.NewSource(int64(n)*7919 + 17))
	statics := n/4 + 1
	recs := make([]Record, n)
	pc := uint64(0x400000)
	for i := range recs {
		pc += uint64(int64(rng.Intn(64)-16) * 4)
		p := pc
		if rng.Intn(8) == 0 {
			p |= 1 << 63 // backward-branch flag
		}
		recs[i] = Record{PC: p, Static: uint32(rng.Intn(statics)), Taken: rng.Intn(3) != 0}
	}
	return NewMemory(name, statics, recs)
}

func encodeColumnar(t *testing.T, m *Memory, blockSize int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteColumnarBlocks(&buf, m, blockSize); err != nil {
		t.Fatalf("WriteColumnarBlocks(%d): %v", blockSize, err)
	}
	return buf.Bytes()
}

func drainBlocks(t *testing.T, c *Columnar) []Record {
	t.Helper()
	bs := c.BlockStream()
	var out []Record
	for {
		recs, err := bs.NextBlock()
		if err != nil {
			t.Fatalf("NextBlock: %v", err)
		}
		if recs == nil {
			return out
		}
		out = append(out, recs...)
	}
}

func TestColumnarRoundTrip(t *testing.T) {
	m := synthetic("columnar-rt", 10_000)
	enc := encodeColumnar(t, m, DefaultColumnarBlock)
	c, err := OpenColumnar(enc)
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	if c.Name() != m.Name() || c.StaticCount() != m.StaticCount() || c.Len() != m.Len() {
		t.Fatalf("shape changed: (%q,%d,%d) vs (%q,%d,%d)",
			c.Name(), c.StaticCount(), c.Len(), m.Name(), m.StaticCount(), m.Len())
	}
	got := drainBlocks(t, c)
	if len(got) != m.Len() {
		t.Fatalf("decoded %d records, want %d", len(got), m.Len())
	}
	for i, r := range got {
		if r != m.Records()[i] {
			t.Fatalf("record %d changed: %+v vs %+v", i, r, m.Records()[i])
		}
	}
}

// TestColumnarBlockBoundaries is the table-driven boundary sweep the
// issue calls for: 0, 1, N-1, N, N+1 and 3N+1 records at block size N
// must all index into the right number of blocks, hand out full blocks
// except the last, and reproduce the records exactly — through both the
// block iterator and the record stream.
func TestColumnarBlockBoundaries(t *testing.T) {
	const N = 64
	for _, n := range []int{0, 1, N - 1, N, N + 1, 3*N + 1} {
		t.Run(fmt.Sprintf("n=%d", n), func(t *testing.T) {
			m := synthetic("boundary", n)
			enc := encodeColumnar(t, m, N)
			c, err := OpenColumnar(enc)
			if err != nil {
				t.Fatalf("OpenColumnar: %v", err)
			}
			wantBlocks := (n + N - 1) / N
			if c.NumBlocks() != wantBlocks {
				t.Fatalf("%d records at block %d indexed %d blocks, want %d", n, N, c.NumBlocks(), wantBlocks)
			}
			bs := c.BlockStream()
			seen := 0
			for b := 0; ; b++ {
				recs, err := bs.NextBlock()
				if err != nil {
					t.Fatalf("block %d: %v", b, err)
				}
				if recs == nil {
					break
				}
				want := N
				if b == wantBlocks-1 {
					want = n - (wantBlocks-1)*N
				}
				if len(recs) != want {
					t.Fatalf("block %d holds %d records, want %d", b, len(recs), want)
				}
				for k, r := range recs {
					if r != m.Records()[seen+k] {
						t.Fatalf("block %d record %d differs", b, k)
					}
				}
				seen += len(recs)
			}
			if seen != n {
				t.Fatalf("iterated %d records, want %d", seen, n)
			}
			// The record stream must agree with the block iterator.
			st := c.Stream()
			for i := 0; i < n; i++ {
				r, ok := st.Next()
				if !ok || r != m.Records()[i] {
					t.Fatalf("stream record %d: ok=%v r=%+v want %+v", i, ok, r, m.Records()[i])
				}
			}
			if _, ok := st.Next(); ok {
				t.Fatalf("stream yielded a record past the end")
			}
		})
	}
}

// TestColumnarTruncation: every strict prefix of a columnar file must be
// rejected at OpenColumnar with a located *ColumnarDecodeError — the
// record count is declared up front, so no prefix can satisfy it.
func TestColumnarTruncation(t *testing.T) {
	m := synthetic("torn", 3*16+5)
	enc := encodeColumnar(t, m, 16)
	for cut := 0; cut < len(enc); cut++ {
		_, err := OpenColumnar(enc[:cut])
		if err == nil {
			t.Fatalf("truncation to %d/%d bytes was accepted", cut, len(enc))
		}
		var dec *ColumnarDecodeError
		if !errors.As(err, &dec) {
			t.Fatalf("truncation to %d bytes: %v is not a *ColumnarDecodeError", cut, err)
		}
		if dec.Offset < 0 || dec.Offset > int64(cut) {
			t.Fatalf("truncation to %d bytes: offset %d outside the prefix", cut, dec.Offset)
		}
		if dec.Block < -1 || dec.Block >= int64((m.Len()+15)/16) {
			t.Fatalf("truncation to %d bytes: block %d out of range", cut, dec.Block)
		}
	}
}

// TestColumnarTornFinalBlock pins the named edge case: a file cut inside
// its last (partial) block reports that block's index.
func TestColumnarTornFinalBlock(t *testing.T) {
	const N = 16
	m := synthetic("torn-final", 2*N+7) // final block holds 7 records
	enc := encodeColumnar(t, m, N)
	_, err := OpenColumnar(enc[:len(enc)-3])
	var dec *ColumnarDecodeError
	if !errors.As(err, &dec) {
		t.Fatalf("torn final block: %v is not a *ColumnarDecodeError", err)
	}
	if dec.Block != 2 {
		t.Fatalf("torn final block reported block %d, want 2", dec.Block)
	}
	if !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, ErrBadFormat) {
		t.Fatalf("torn final block unwraps to neither EOF nor ErrBadFormat: %v", err)
	}
}

// TestColumnarCorruptionDetected: a flipped byte anywhere — header,
// lengths, payload streams, outcome bits, CRC footers — must yield a
// typed error, never a silently different trace. This is the checksum
// guarantee the row format cannot make.
func TestColumnarCorruptionDetected(t *testing.T) {
	m := synthetic("corrupt", 200)
	enc := encodeColumnar(t, m, 64)
	for pos := 0; pos < len(enc); pos++ {
		for _, bit := range []byte{0x01, 0x80} {
			corrupt := append([]byte(nil), enc...)
			corrupt[pos] ^= bit
			c, err := OpenColumnar(corrupt)
			if err == nil {
				// Structure and checksums passed (conceivable only if the
				// flip is detected later); the decode itself must fail —
				// a full drain is obligated to surface it.
				if _, derr := drainAll(c); derr == nil {
					t.Fatalf("flip of bit %#x at byte %d/%d decoded silently", bit, pos, len(enc))
				}
				continue
			}
			var dec *ColumnarDecodeError
			if !errors.As(err, &dec) {
				t.Fatalf("flip at byte %d: %v is not a *ColumnarDecodeError", pos, err)
			}
		}
	}
}

// drainAll is drainBlocks without the test harness, returning the error.
func drainAll(c *Columnar) ([]Record, error) { return drainStream(c.BlockStream()) }

// TestColumnarCorruptFooterNamesBlock: damage in block b's CRC footer is
// attributed to block b at the footer's offset.
func TestColumnarCorruptFooterNamesBlock(t *testing.T) {
	m := synthetic("footer", 3*32)
	enc := encodeColumnar(t, m, 32)
	c, err := OpenColumnar(enc)
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	// The middle block's footer sits 4 bytes before block 2's start.
	corrupt := append([]byte(nil), enc...)
	footerOff := c.blocks[2].start - 4
	corrupt[footerOff] ^= 0xFF
	_, err = OpenColumnar(corrupt)
	var dec *ColumnarDecodeError
	if !errors.As(err, &dec) {
		t.Fatalf("corrupt footer: %v is not a *ColumnarDecodeError", err)
	}
	if dec.Block != 1 {
		t.Errorf("corrupt footer of block 1 reported block %d", dec.Block)
	}
	if dec.Offset != int64(footerOff) {
		t.Errorf("corrupt footer at byte %d reported offset %d", footerOff, dec.Offset)
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Errorf("checksum mismatch does not unwrap to ErrBadFormat: %v", err)
	}
}

// TestColumnarFlippedOutcomeBit: the satellite's headline case — a
// single flipped direction bit is caught by the block CRC instead of
// flowing into the simulator as a wrong-answer trace.
func TestColumnarFlippedOutcomeBit(t *testing.T) {
	m := synthetic("outcome", 100)
	enc := encodeColumnar(t, m, 64)
	c, err := OpenColumnar(enc)
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	corrupt := append([]byte(nil), enc...)
	corrupt[c.blocks[0].outOff] ^= 0x01 // record 0's direction
	_, err = OpenColumnar(corrupt)
	var dec *ColumnarDecodeError
	if !errors.As(err, &dec) || dec.Block != 0 {
		t.Fatalf("flipped outcome bit: err %v, want a *ColumnarDecodeError for block 0", err)
	}
}

// TestColumnarLyingStreams: a file whose checksums are honest but whose
// static column lies (site beyond the declared count) is caught by the
// decoder, not passed through. Built by encoding a Memory that violates
// the Static bound — the writer is faithful, so the CRCs validate.
func TestColumnarLyingStreams(t *testing.T) {
	bad := NewMemory("liar", 1, []Record{{PC: 4, Static: 2, Taken: true}})
	enc := encodeColumnar(t, bad, 8)
	c, err := OpenColumnar(enc)
	if err != nil {
		t.Fatalf("OpenColumnar rejected structurally valid file: %v", err)
	}
	_, err = drainAll(c)
	var dec *ColumnarDecodeError
	if !errors.As(err, &dec) {
		t.Fatalf("out-of-range static decoded without a typed error: %v", err)
	}
	if !errors.Is(err, ErrBadFormat) {
		t.Errorf("out-of-range static does not unwrap to ErrBadFormat: %v", err)
	}
}

func TestColumnarTrailingGarbage(t *testing.T) {
	m := synthetic("trailing", 10)
	enc := encodeColumnar(t, m, 8)
	if _, err := OpenColumnar(append(append([]byte(nil), enc...), 0x00)); err == nil {
		t.Fatalf("trailing byte was accepted")
	}
}

func TestColumnarWriterRejectsBadBlockSize(t *testing.T) {
	m := synthetic("bad-block", 4)
	var buf bytes.Buffer
	if err := WriteColumnarBlocks(&buf, m, 0); err == nil {
		t.Fatalf("block size 0 accepted")
	}
	if err := WriteColumnarBlocks(&buf, m, maxColumnarBlock+1); err == nil {
		t.Fatalf("oversized block accepted")
	}
}

// TestColumnarConcurrentStreams: one *Columnar serves independent
// iterators concurrently (the scheduler-pool contract); run with -race.
func TestColumnarConcurrentStreams(t *testing.T) {
	m := synthetic("concurrent", 5000)
	c, err := OpenColumnar(encodeColumnar(t, m, 256))
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			recs, err := drainAll(c)
			if err == nil && len(recs) != m.Len() {
				err = fmt.Errorf("drained %d records, want %d", len(recs), m.Len())
			}
			errs <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestDecodeSniffsFormats: IsColumnar recognizes BMC1 by its magic, and
// Decode materializes a BMC1 file record for record.
func TestDecodeSniffsFormats(t *testing.T) {
	m := synthetic("sniff", 500)
	col := encodeColumnar(t, m, 128)
	if !IsColumnar(col) || IsColumnar([]byte("BMT1\x00\x00\x00")) || IsColumnar(col[:3]) {
		t.Fatalf("IsColumnar misclassifies")
	}
	got, err := Decode(col)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if got.Len() != m.Len() || got.Name() != m.Name() || got.StaticCount() != m.StaticCount() {
		t.Fatalf("Decode changed shape")
	}
	for i, r := range got.Records() {
		if r != m.Records()[i] {
			t.Fatalf("Decode changed record %d", i)
		}
	}
}

func TestImportText(t *testing.T) {
	in := strings.Join([]string{
		"# an external capture",
		"0x1000 1",
		"0x1008,0",
		"4112 t",
		"1008 n", // bare decimal
		"0x1000 taken",
		"",
		"dead 0",                 // bare hex (has hex letters)
		"0X1F00 1",               // uppercase 0X
		"0x1f00\t0",              // tab separator
		"0x2000,1,extra,fields",  // CSV fields past the second ignored
		"000123 n",               // leading zeros, decimal
		"18446744073709551615 1", // the largest decimal PC
	}, "\n")
	m, err := ImportText(strings.NewReader(in), "capture")
	if err != nil {
		t.Fatalf("ImportText: %v", err)
	}
	if m.Len() != 11 || m.Name() != "capture" {
		t.Fatalf("imported %d records, want 11", m.Len())
	}
	want := []Record{
		{PC: 0x1000, Static: 0, Taken: true},
		{PC: 0x1008, Static: 1, Taken: false},
		{PC: 4112, Static: 2, Taken: true},
		{PC: 1008, Static: 3, Taken: false},
		{PC: 0x1000, Static: 0, Taken: true}, // site id reused
		{PC: 0xdead, Static: 4, Taken: false},
		{PC: 0x1f00, Static: 5, Taken: true},
		{PC: 0x1f00, Static: 5, Taken: false},
		{PC: 0x2000, Static: 6, Taken: true},
		{PC: 123, Static: 7, Taken: false},
		{PC: ^uint64(0), Static: 8, Taken: true},
	}
	for i, r := range m.Records() {
		if r != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, r, want[i])
		}
	}
	if m.StaticCount() != 9 {
		t.Fatalf("static count %d, want 9", m.StaticCount())
	}

	for _, bad := range []string{"0x1000", "zzz 1", "0x1000 maybe"} {
		if _, err := ImportText(strings.NewReader(bad), "bad"); err == nil {
			t.Errorf("ImportText accepted %q", bad)
		}
	}

	// An imported trace must survive the binary format.
	c, err := OpenColumnar(encodeColumnar(t, m, 4))
	if err != nil {
		t.Fatalf("imported trace columnar round-trip: %v", err)
	}
	if got := drainBlocks(t, c); len(got) != m.Len() {
		t.Fatalf("imported trace columnar drained %d records", len(got))
	}
}

// TestColumnarMaterializeBlockPath: MaterializeContext over a Blocked
// source must produce the identical Memory the record stream would.
func TestColumnarMaterializeBlockPath(t *testing.T) {
	m := synthetic("materialize", 3000)
	c, err := OpenColumnar(encodeColumnar(t, m, 100))
	if err != nil {
		t.Fatalf("OpenColumnar: %v", err)
	}
	got := Materialize(c)
	if got.Len() != m.Len() || got.Name() != m.Name() || got.StaticCount() != m.StaticCount() {
		t.Fatalf("materialized shape changed")
	}
	for i, r := range got.Records() {
		if r != m.Records()[i] {
			t.Fatalf("materialized record %d changed", i)
		}
	}
}

// TestColumnarScratchBoundedByCount: a file may declare any block size up
// to maxColumnarBlock, but the block iterator's buffer holds no more
// records than the file does, so a few-record body cannot make its
// decoder allocate a megarecord buffer.
func TestColumnarScratchBoundedByCount(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteColumnarBlocks(&buf, synthetic("tiny", 3), maxColumnarBlock); err != nil {
		t.Fatal(err)
	}
	c, err := OpenColumnar(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	blk, err := c.BlockStream().NextBlock()
	if err != nil || len(blk) != 3 || cap(blk) != 3 {
		t.Fatalf("block of %d records in a buffer of %d (err %v), want 3 in 3", len(blk), cap(blk), err)
	}
}
