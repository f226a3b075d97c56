package trace

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzRead feeds arbitrary bytes to Decode, the one binary trace
// reader. It must never panic or hang, every rejection must be a typed
// *ColumnarDecodeError, and anything it accepts must re-encode at its
// own block size and decode back to the same trace.
func FuzzRead(f *testing.F) {
	m := NewMemory("seed", 3, []Record{
		{PC: 0x1000, Static: 0, Taken: true},
		{PC: 0x1008, Static: 2, Taken: false},
	})
	var buf bytes.Buffer
	if err := WriteColumnarBlocks(&buf, m, 1); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	f.Add([]byte("BMT1")) // the retired row format's magic
	f.Add([]byte("BMC1\x00\x00\x00"))
	f.Add(valid[:len(valid)-1])
	f.Add(append(append([]byte{}, valid...), 0xFF))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		if err != nil {
			var dec *ColumnarDecodeError
			if !errors.As(err, &dec) {
				t.Fatalf("rejection %v is not a *ColumnarDecodeError", err)
			}
			return
		}
		c, err := OpenColumnar(data)
		if err != nil {
			t.Fatalf("Decode accepted what OpenColumnar rejects: %v", err)
		}
		var out bytes.Buffer
		if err := WriteColumnarBlocks(&out, got, c.BlockSize()); err != nil {
			t.Fatalf("accepted trace failed to re-serialize: %v", err)
		}
		again, err := Decode(out.Bytes())
		if err != nil {
			t.Fatalf("round-trip of accepted trace failed: %v", err)
		}
		if again.Len() != got.Len() || again.Name() != got.Name() || again.StaticCount() != got.StaticCount() {
			t.Fatalf("round-trip changed shape")
		}
		for i := range got.Records() {
			if got.Records()[i] != again.Records()[i] {
				t.Fatalf("round-trip changed record %d", i)
			}
		}
	})
}

// FuzzRoundTrip drives WriteColumnar and Decode from structured inputs:
// any trace the writer produces must decode back record for record,
// every strict prefix of the encoding (a truncated file) must be refused
// with a located *ColumnarDecodeError, and every single-bit flip of the
// encoding must be refused with a typed one. FuzzColumnarRoundTrip
// covers the block iterator at fuzzed block sizes with one flip per
// input; this target covers Decode, the materializing reader, with every
// flip.
func FuzzRoundTrip(f *testing.F) {
	f.Add("gcc", uint16(8), []byte{0x01, 0x02, 0x03, 0x04, 0xFF, 0x00, 0x10, 0x81})
	f.Add("", uint16(1), []byte{})
	f.Add("a trace with a long-ish name", uint16(1024), bytes.Repeat([]byte{0xAB, 0x40, 0x07}, 40))
	f.Add("midstream", uint16(16), bytes.Repeat([]byte{0x5A, 0x01, 0x03, 0x01}, 64))

	f.Fuzz(func(t *testing.T, name string, statics uint16, raw []byte) {
		nStatics := int(statics)%1024 + 1
		// Decode records from the raw bytes: 4 bytes each — 2 for the PC
		// delta (zig-zag style around the previous PC), 1 for the static
		// site, 1 whose low bit is the outcome. Capped so the prefix and
		// flip scans below stay fast.
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
		if err := WriteColumnar(&buf, m); err != nil {
			t.Fatalf("WriteColumnar failed on a valid trace: %v", err)
		}
		enc := buf.Bytes()

		got, err := Decode(enc)
		if err != nil {
			t.Fatalf("Decode rejected WriteColumnar's output: %v", err)
		}
		if got.Name() != m.Name() || got.StaticCount() != m.StaticCount() || got.Len() != m.Len() {
			t.Fatalf("shape changed: (%q,%d,%d) vs (%q,%d,%d)",
				got.Name(), got.StaticCount(), got.Len(), m.Name(), m.StaticCount(), m.Len())
		}
		for i := range recs {
			if got.Records()[i] != recs[i] {
				t.Fatalf("record %d changed: %+v vs %+v", i, got.Records()[i], recs[i])
			}
		}

		// Truncation at EVERY boundary must be refused: the header carries
		// the record count, so a strict prefix can never satisfy it. The
		// error must locate itself inside the prefix.
		for cut := 0; cut < len(enc); cut++ {
			_, err := Decode(enc[:cut])
			var dec *ColumnarDecodeError
			if !errors.As(err, &dec) {
				t.Fatalf("truncation to %d/%d bytes: error %v is not a *ColumnarDecodeError", cut, len(enc), err)
			}
			if dec.Offset < 0 || dec.Offset > int64(cut) {
				t.Fatalf("truncation to %d bytes: offset %d outside the prefix", cut, dec.Offset)
			}
		}

		// Every single-bit flip must be refused with a typed error, never
		// decoded into a different trace.
		flipped := make([]byte, len(enc))
		for bit := range 8 * len(enc) {
			copy(flipped, enc)
			flipped[bit/8] ^= 1 << (bit % 8)
			_, err := Decode(flipped)
			var dec *ColumnarDecodeError
			if !errors.As(err, &dec) {
				t.Fatalf("flip of bit %d of byte %d/%d: error %v is not a *ColumnarDecodeError",
					bit%8, bit/8, len(enc), err)
			}
		}
	})
}
