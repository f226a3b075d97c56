// Package journal is the append-only record file behind both of the
// repository's journals: the batch checkpoint (sim.Journal) and the
// service's per-session journal. A journal is a sequence of records,
// each framed as
//
//	length  uint32, little endian: the payload's byte count
//	crc     uint32, little endian: CRC32-C (Castagnoli) of the payload
//	check   uint32, little endian: CRC32-C of the eight bytes before it
//	payload length bytes
//
// with nothing before the first record and nothing after the last. The
// package knows nothing of what the payloads mean; each journal encodes
// its own header and entries as payloads (the codec helpers in this
// package are the shared vocabulary).
//
// A writer appends whole records and never rewrites one in place, and it
// writes a record's twelve-byte frame header whole before its payload, so
// a process killed mid-append leaves at most one incomplete record at the
// end of the file: fewer than twelve bytes, or a sound frame header whose
// payload runs past the end. Scan treats exactly that as a torn tail: the
// incomplete record is dropped and everything before it stands. Any
// other damage is a *DamageError and the file is not to be trusted: a
// complete frame header that fails its check (so a damaged length never
// passes for a torn tail), or a complete payload that fails its checksum.
// Compaction replaces the whole file through a synced temporary file and
// a rename, so a kill at any point leaves either the old file or the new
// one, complete.
package journal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// headerSize is the framing overhead of one record.
const headerSize = 12

// MaxRecord bounds one payload. Both journals' records are a few
// megabytes at most; a length past this bound is damage, not data.
const MaxRecord = 1 << 30

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// DamageError is interior damage: a record at Offset (the Index-th in
// the file, from 0) that is complete but fails its framing checks
// (Reason), or whose payload its reader refused (Err).
type DamageError struct {
	Offset int64
	Index  int
	Reason string
	Err    error
}

func (e *DamageError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("journal: record %d at offset %d: %v", e.Index, e.Offset, e.Err)
	}
	return fmt.Sprintf("journal: record %d at offset %d damaged: %s", e.Index, e.Offset, e.Reason)
}

func (e *DamageError) Unwrap() error { return e.Err }

// ErrLegacy marks a file in the JSON-lines layout both journals used
// before this framing: one that starts with '{' and whose first frame
// header does not check. (A journal's first byte is the low byte of its
// header record's length, so '{' alone proves nothing.) Nothing converts
// one: the callers refuse it with a VersionError.
var ErrLegacy = errors.New("journal: JSON-lines journal from before the binary record framing")

// VersionError is a journal this build does not read: its header names
// another version, or (Got 0) it is a JSON-lines file of an earlier
// build. Nothing converts one.
type VersionError struct{ Got, Want int }

func (e *VersionError) Error() string {
	if e.Got == 0 {
		return fmt.Sprintf("journal: JSON-lines journal of an earlier build; this build reads version %d", e.Want)
	}
	return fmt.Sprintf("journal: version %d; this build reads version %d", e.Got, e.Want)
}

// AppendRecord appends payload to dst as one framed record.
func AppendRecord(dst, payload []byte) []byte {
	return append(appendHeader(dst, len(payload), crc32.Checksum(payload, castagnoli)), payload...)
}

// appendHeader appends the frame header of an n-byte payload whose
// CRC32-C is crc to dst.
func appendHeader(dst []byte, n int, crc uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(n))
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return binary.LittleEndian.AppendUint32(dst, crc32.Checksum(dst[len(dst)-8:], castagnoli))
}

// headerChecks reports whether data starts with a complete frame header
// whose check matches.
func headerChecks(data []byte) bool {
	return len(data) >= headerSize &&
		crc32.Checksum(data[:8], castagnoli) == binary.LittleEndian.Uint32(data[8:])
}

// Scan calls fn with each intact record's offset and payload in file
// order, and returns the length of the intact prefix: everything up to
// and not including a torn tail. The payload aliases data. Interior
// damage is returned as a *DamageError, and so is an error from fn,
// which stops the scan and is the DamageError's Err; a JSON-lines file is
// ErrLegacy.
func Scan(data []byte, fn func(at int64, payload []byte) error) (int64, error) {
	if len(data) > 0 && data[0] == '{' && !headerChecks(data) {
		return 0, ErrLegacy
	}
	off := 0
	for index := 0; len(data)-off >= headerSize; index++ {
		n := binary.LittleEndian.Uint32(data[off:])
		end := off + headerSize + int(n)
		var reason string
		switch {
		case !headerChecks(data[off:]):
			reason = "frame header check mismatch"
		case n > MaxRecord:
			reason = fmt.Sprintf("length %d over %d", n, MaxRecord)
		case end > len(data):
			return int64(off), nil // the torn tail of a killed writer
		case crc32.Checksum(data[off+headerSize:end], castagnoli) != binary.LittleEndian.Uint32(data[off+4:]):
			reason = "checksum mismatch"
		}
		if reason != "" {
			return int64(off), &DamageError{Offset: int64(off), Index: index, Reason: reason}
		}
		if err := fn(int64(off), data[off+headerSize:end]); err != nil {
			return int64(off), &DamageError{Offset: int64(off), Index: index, Err: err}
		}
		off = end
	}
	return int64(off), nil
}

// Writer appends records to one journal file. It has one owner: nothing
// coordinates two writers on one file.
type Writer struct {
	path string
	f    *os.File
	size int64
	err  error // sticky: after a failed append the file is left alone
}

// Create starts a fresh journal at path holding records, truncating any
// file there.
func Create(path string, records ...[]byte) (*Writer, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{path: path, f: f}
	for _, r := range records {
		if err := w.Append(r); err != nil {
			f.Close()
			os.Remove(path)
			return nil, err
		}
	}
	return w, nil
}

// Open scans the journal at path, calling fn for every intact record,
// and reopens it for appending after them: a torn tail is cut off first,
// so the next record follows the last intact one. The file is changed
// only once every record has passed fn.
func Open(path string, fn func(at int64, payload []byte) error) (*Writer, error) {
	data, end, err := load(path, fn)
	if err != nil {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, err
	}
	if end < int64(len(data)) {
		err = f.Truncate(end)
	}
	if err == nil {
		_, err = f.Seek(end, io.SeekStart)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	return &Writer{path: path, f: f, size: end}, nil
}

// Load scans the journal at path without opening it for writing.
func Load(path string, fn func(at int64, payload []byte) error) error {
	_, _, err := load(path, fn)
	return err
}

// load reads and scans the file at path. A journal begins with the
// header its writer was created with, so a file with no intact record —
// empty, or torn inside its first record — is damaged, not empty.
func load(path string, fn func(at int64, payload []byte) error) ([]byte, int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	end, err := Scan(data, fn)
	if err == nil && end == 0 {
		err = &DamageError{Reason: fmt.Sprintf("no intact record in %d bytes", len(data))}
	}
	return data, end, err
}

// Size returns the file's length in bytes.
func (w *Writer) Size() int64 { return w.size }

// Append writes payload as one record. Nothing is buffered: when Append
// returns, the record is in the file (though not synced), so a killed
// process loses nothing Append acknowledged. After a failed append the
// writer refuses further ones, leaving the partial record as a torn tail
// for the next Open to cut.
func (w *Writer) Append(payload []byte) error { return w.AppendParts(payload, nil) }

// AppendParts writes one record whose payload is head followed by body,
// exactly as Append(append(head, body...)) would, without joining them:
// a large body goes from the caller's buffer to the file with no copy.
func (w *Writer) AppendParts(head, body []byte) error {
	if w.err != nil {
		return w.err
	}
	size := len(head) + len(body)
	if size > MaxRecord {
		return fmt.Errorf("journal: %d-byte record over %d", size, MaxRecord)
	}
	crc := crc32.Update(crc32.Checksum(head, castagnoli), castagnoli, body)
	var hdr [headerSize]byte
	var n int
	var err error
	for _, part := range [3][]byte{appendHeader(hdr[:0], size, crc), head, body} {
		if len(part) == 0 || err != nil {
			continue
		}
		var m int
		m, err = w.f.Write(part)
		n += m
	}
	w.size += int64(n)
	if err != nil {
		w.err = fmt.Errorf("journal: appending to %s: %w", w.path, err)
	}
	return w.err
}

// Compact replaces the journal's contents with records: they are written
// to a temporary file beside it, synced, and renamed over it, and the
// writer continues on the new file.
func (w *Writer) Compact(records ...[]byte) error {
	if w.err != nil {
		return w.err
	}
	tmp := w.path + ".tmp"
	nw, err := Create(tmp, records...)
	if err == nil {
		if err = nw.f.Sync(); err == nil {
			err = os.Rename(tmp, w.path)
		}
		if err != nil {
			nw.f.Close()
			os.Remove(tmp)
		}
	}
	if err != nil {
		return fmt.Errorf("journal: compacting %s: %w", w.path, err)
	}
	w.f.Close()
	w.f, w.size = nw.f, nw.size
	return nil
}

// Close closes the file; the journal stays on disk.
func (w *Writer) Close() error {
	if w.f == nil {
		return nil
	}
	err := w.f.Close()
	w.f = nil
	return err
}
