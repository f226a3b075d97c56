package trace

import (
	"errors"
	"strings"
	"testing"
)

// TestDecodeErrorLocatesHeaderDamage: Decode reads BMC1 and nothing
// else. Any other input — garbage, an empty file, or the header of an
// old "BMT1" row file — fails at byte 0 of the header with a typed
// *ColumnarDecodeError that unwraps to ErrBadFormat.
func TestDecodeErrorLocatesHeaderDamage(t *testing.T) {
	for _, in := range []string{"NOPE....", "", "BMT1", "BMT1\x03\x04\x03gcc\x01\x02"} {
		_, err := Decode([]byte(in))
		var dec *ColumnarDecodeError
		if !errors.As(err, &dec) {
			t.Fatalf("Decode(%q): error %v is not a *ColumnarDecodeError", in, err)
		}
		if dec.Block != headerBlock || dec.Offset != 0 {
			t.Errorf("Decode(%q) located at (block %d, byte %d), want (-1, 0)", in, dec.Block, dec.Offset)
		}
		if !errors.Is(err, ErrBadFormat) {
			t.Errorf("Decode(%q) does not unwrap to ErrBadFormat: %v", in, err)
		}
		if !strings.Contains(err.Error(), "header") || !strings.Contains(err.Error(), "bad magic") {
			t.Errorf("Decode(%q) message does not name the header's magic: %q", in, err)
		}
	}
}

// TestColumnarEveryBitFlipIsTyped pins why BMC1 is the one binary
// trace format: every single-bit flip of an encoded trace, the magic
// included, makes Decode fail with a typed *ColumnarDecodeError. The
// header and every block carry a CRC-32, which detects every single-bit
// error, so no flip may decode into a different trace, and none may
// panic.
func TestColumnarEveryBitFlipIsTyped(t *testing.T) {
	m := synthetic("every-flip", 300)
	enc := encodeColumnar(t, m, 64)
	if _, err := Decode(enc); err != nil {
		t.Fatalf("Decode of the clean file: %v", err)
	}
	flipped := make([]byte, len(enc))
	for bit := range 8 * len(enc) {
		copy(flipped, enc)
		flipped[bit/8] ^= 1 << (bit % 8)
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("flip of bit %d of byte %d panicked: %v", bit%8, bit/8, r)
				}
			}()
			_, err := Decode(flipped)
			var dec *ColumnarDecodeError
			if !errors.As(err, &dec) {
				t.Fatalf("flip of bit %d of byte %d/%d: error %v is not a *ColumnarDecodeError",
					bit%8, bit/8, len(enc), err)
			}
		}()
	}
}
