package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The payload vocabulary both journals encode their records in: uvarint
// integers, uvarint-length strings, and blobs behind a four-byte length
// so a nested encoder (an observer or predictor snapshot) can write in
// place without an intermediate copy.

// AppendString appends s behind its uvarint length.
func AppendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// AppendStrings appends a uvarint count and then each string.
func AppendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = AppendString(dst, s)
	}
	return dst
}

// AppendBlob appends whatever enc appends to dst, preceded by its length
// as a little-endian uint32.
func AppendBlob(dst []byte, enc func([]byte) []byte) []byte {
	at := len(dst)
	dst = enc(append(dst, 0, 0, 0, 0))
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	return dst
}

// Decoder reads one payload. The first failure latches: later reads
// return zero values, and Finish reports it.
type Decoder struct {
	data []byte
	err  error
}

// NewDecoder returns a decoder over payload.
func NewDecoder(payload []byte) *Decoder { return &Decoder{data: payload} }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.data = nil
}

// Byte reads one byte.
func (d *Decoder) Byte() byte {
	if len(d.data) < 1 {
		d.fail(errors.New("truncated"))
		return 0
	}
	b := d.data[0]
	d.data = d.data[1:]
	return b
}

// Uvarint reads one uvarint no larger than limit.
func (d *Decoder) Uvarint(limit uint64) uint64 {
	v, n := binary.Uvarint(d.data)
	if n <= 0 {
		d.fail(errors.New("bad uvarint"))
		return 0
	}
	if v > limit {
		d.fail(fmt.Errorf("value %d over %d", v, limit))
		return 0
	}
	d.data = d.data[n:]
	return v
}

// Int reads a non-negative int.
func (d *Decoder) Int() int { return int(d.Uvarint(math.MaxInt)) }

// Count reads an element count, bounded by the bytes left after it since
// every element takes at least one.
func (d *Decoder) Count() int {
	n := d.Uvarint(math.MaxInt)
	if n > uint64(len(d.data)) {
		d.fail(fmt.Errorf("%d elements in %d bytes", n, len(d.data)))
		return 0
	}
	return int(n)
}

// Uint64 reads a little-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if len(d.data) < 8 {
		d.fail(errors.New("truncated"))
		return 0
	}
	v := binary.LittleEndian.Uint64(d.data)
	d.data = d.data[8:]
	return v
}

// String reads a string written by AppendString.
func (d *Decoder) String() string {
	n := d.Count()
	s := string(d.data[:n])
	d.data = d.data[n:]
	return s
}

// Strings reads a list written by AppendStrings; nil when empty.
func (d *Decoder) Strings() []string {
	var ss []string
	for n := d.Count(); n > 0 && d.err == nil; n-- {
		ss = append(ss, d.String())
	}
	return ss
}

// Blob reads a blob written by AppendBlob. It aliases the payload.
func (d *Decoder) Blob() []byte {
	if len(d.data) < 4 {
		d.fail(errors.New("truncated"))
		return nil
	}
	n := binary.LittleEndian.Uint32(d.data)
	if uint64(n) > uint64(len(d.data)-4) {
		d.fail(fmt.Errorf("%d-byte blob in %d bytes", n, len(d.data)-4))
		return nil
	}
	b := d.data[4 : 4+n : 4+n]
	d.data = d.data[4+n:]
	return b
}

// Rest consumes and returns every byte left, aliasing the payload.
func (d *Decoder) Rest() []byte {
	rest := d.data
	d.data = nil
	return rest
}

// Err returns the first failure so far.
func (d *Decoder) Err() error { return d.err }

// Finish returns the first failure, or an error if bytes are left over.
func (d *Decoder) Finish() error {
	if d.err == nil && len(d.data) > 0 {
		d.err = fmt.Errorf("%d trailing bytes", len(d.data))
	}
	return d.err
}
