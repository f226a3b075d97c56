package trace

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzColumnarRoundTrip is the columnar sibling of FuzzRoundTrip, with a
// stronger corruption clause the checksummed format can actually
// promise: any trace the writer produces at any block size must decode
// back record-for-record through the block iterator; every strict prefix
// must be rejected with a located *ColumnarDecodeError; and a
// single-byte flip anywhere in the file must yield a typed error —
// never a wrong-answer decode (the row format only promises not to
// panic; the per-block CRCs upgrade that to detection). The projected
// stream, BranchBlocks, must give the same PCs and directions on a fresh
// handle's first pass (full decodes) and its second (projected ones).
func FuzzColumnarRoundTrip(f *testing.F) {
	f.Add("gcc", uint16(8), uint16(4), []byte{0x01, 0x02, 0x03, 0x04, 0xFF, 0x00, 0x10, 0x81})
	f.Add("", uint16(1), uint16(1), []byte{})
	f.Add("block-boundary", uint16(16), uint16(3), bytes.Repeat([]byte{0x5A, 0x01, 0x03, 0x01}, 9))
	f.Add("one-giant-block", uint16(64), uint16(512), bytes.Repeat([]byte{0x10, 0x00, 0x01, 0x00}, 32))
	f.Add("single", uint16(2), uint16(7), []byte{0xFE, 0xFF, 0x00, 0x01})

	f.Fuzz(func(t *testing.T, name string, statics, blockSize uint16, raw []byte) {
		nStatics := int(statics)%1024 + 1
		bs := int(blockSize)%512 + 1
		// Same structured record synthesis as FuzzRoundTrip: 4 bytes per
		// record, capped so the prefix and flip scans stay fast.
		if len(raw) > 4*64 {
			raw = raw[:4*64]
		}
		var recs []Record
		pc := uint64(0x1000)
		for i := 0; i+4 <= len(raw); i += 4 {
			delta := int64(int16(uint16(raw[i]) | uint16(raw[i+1])<<8))
			pc += uint64(delta * 4)
			recs = append(recs, Record{
				PC:     pc,
				Static: uint32(int(raw[i+2]) % nStatics),
				Taken:  raw[i+3]&1 != 0,
			})
		}
		m := NewMemory(name, nStatics, recs)

		var buf bytes.Buffer
		if err := WriteColumnarBlocks(&buf, m, bs); err != nil {
			t.Fatalf("WriteColumnarBlocks(%d) failed on a valid trace: %v", bs, err)
		}
		enc := buf.Bytes()

		c, err := OpenColumnar(enc)
		if err != nil {
			t.Fatalf("OpenColumnar rejected WriteColumnarBlocks output: %v", err)
		}
		if c.Name() != m.Name() || c.StaticCount() != m.StaticCount() || c.Len() != m.Len() {
			t.Fatalf("shape changed: (%q,%d,%d) vs (%q,%d,%d)",
				c.Name(), c.StaticCount(), c.Len(), m.Name(), m.StaticCount(), m.Len())
		}
		got, err := drainAll(c)
		if err != nil {
			t.Fatalf("block iteration failed on a valid file: %v", err)
		}
		if len(got) != len(recs) {
			t.Fatalf("decoded %d records, want %d", len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Fatalf("record %d changed: %+v vs %+v", i, got[i], recs[i])
			}
		}
		fresh, err := OpenColumnar(enc)
		if err != nil {
			t.Fatalf("OpenColumnar rejected WriteColumnarBlocks output: %v", err)
		}
		for pass := range 2 {
			proj, err := drainStream(BranchBlocks(fresh))
			if err != nil {
				t.Fatalf("projected pass %d failed on a valid file: %v", pass, err)
			}
			if len(proj) != len(got) {
				t.Fatalf("projected pass %d decoded %d records, want %d", pass, len(proj), len(got))
			}
			for i := range got {
				if proj[i].PC != got[i].PC || proj[i].Taken != got[i].Taken {
					t.Fatalf("projected pass %d, record %d: pc %#x taken %v, BlockStream pc %#x taken %v",
						pass, i, proj[i].PC, proj[i].Taken, got[i].PC, got[i].Taken)
				}
			}
		}

		// Truncation at EVERY boundary: the header declares the record
		// count and block size, so no strict prefix can be complete. The
		// error must locate itself — a block index in range (or -1 for the
		// header) and a byte offset inside the prefix.
		numBlocks := int64(c.NumBlocks())
		for cut := 0; cut < len(enc); cut++ {
			_, err := OpenColumnar(enc[:cut])
			if err == nil {
				t.Fatalf("truncation to %d/%d bytes was accepted", cut, len(enc))
			}
			var dec *ColumnarDecodeError
			if !errors.As(err, &dec) {
				t.Fatalf("truncation to %d bytes: error %v is not a *ColumnarDecodeError", cut, err)
			}
			if dec.Offset < 0 || dec.Offset > int64(cut) {
				t.Fatalf("truncation to %d bytes: offset %d outside the prefix", cut, dec.Offset)
			}
			if dec.Block < -1 || dec.Block >= numBlocks {
				t.Fatalf("truncation to %d bytes: block index %d out of range", cut, dec.Block)
			}
		}

		// A single-byte flip derived from the input must be DETECTED, not
		// merely survived: either OpenColumnar rejects it (header CRC,
		// structure, or block CRC) or — if the flip somehow leaves the
		// index valid — the decode itself errors. Silently returning
		// records from a damaged file is the failure this format exists to
		// rule out.
		if len(enc) > 0 && len(raw) > 1 {
			pos := int(raw[0]) % len(enc)
			corrupt := append([]byte{}, enc...)
			corrupt[pos] ^= raw[1] | 1
			c2, err := OpenColumnar(corrupt)
			if err == nil {
				if _, derr := drainAll(c2); derr == nil {
					t.Fatalf("flip of %#x at byte %d/%d decoded silently",
						raw[1]|1, pos, len(enc))
				}
			} else {
				var dec *ColumnarDecodeError
				if !errors.As(err, &dec) {
					t.Fatalf("flip at byte %d: error %v is not a *ColumnarDecodeError", pos, err)
				}
			}
		}
	})
}
