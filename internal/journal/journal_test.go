package journal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// collect scans data and returns the intact payloads.
func collect(t *testing.T, data []byte) ([][]byte, int64, error) {
	t.Helper()
	var got [][]byte
	end, err := Scan(data, func(_ int64, p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	})
	return got, end, err
}

// loadAll reads every payload of the journal at path.
func loadAll(t *testing.T, path string) [][]byte {
	t.Helper()
	var got [][]byte
	if err := Load(path, func(_ int64, p []byte) error {
		got = append(got, bytes.Clone(p))
		return nil
	}); err != nil {
		t.Fatalf("Load: %v", err)
	}
	return got
}

func TestAppendScanRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	want := [][]byte{[]byte("header"), {}, []byte("a longer record")}
	w, err := Create(path, want[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range want[1:] {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(data)) != w.Size() {
		t.Fatalf("Size %d, file %d bytes", w.Size(), len(data))
	}
	var framed []byte
	for _, p := range want {
		framed = AppendRecord(framed, p)
	}
	if !bytes.Equal(data, framed) {
		t.Fatalf("Writer and AppendRecord frame differently")
	}
	if got := loadAll(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip: got %q, want %q", got, want)
	}
}

// TestOpenCutsTornTail: a record cut mid-write is dropped on open and
// the file is truncated to the intact prefix, so the next append lands
// where a reader expects it.
func TestOpenCutsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j")
	whole := AppendRecord(AppendRecord(nil, []byte("header")), []byte("committed"))
	torn := AppendRecord(nil, []byte("never acknowledged"))
	if err := os.WriteFile(path, append(bytes.Clone(whole), torn[:len(torn)-4]...), 0o644); err != nil {
		t.Fatal(err)
	}
	n := 0
	w, err := Open(path, func(int64, []byte) error { n++; return nil })
	if err != nil {
		t.Fatalf("Open over a torn tail: %v", err)
	}
	if n != 2 || w.Size() != int64(len(whole)) {
		t.Fatalf("Open saw %d records ending at %d, want 2 ending at %d", n, w.Size(), len(whole))
	}
	if err := w.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	got := loadAll(t, path)
	want := [][]byte{[]byte("header"), []byte("committed"), []byte("after")}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after the torn tail: got %q, want %q", got, want)
	}
}

// TestScanDamage: a complete record that fails its checksum is interior
// damage located at its record, whatever follows it; a journal with no
// intact record is damaged too; a JSON-lines file is ErrLegacy.
func TestScanDamage(t *testing.T) {
	good := AppendRecord(AppendRecord(nil, []byte("header")), []byte("body"))
	flipped := bytes.Clone(good)
	flipped[len(good)-1] ^= 1
	_, end, err := collect(t, flipped)
	var de *DamageError
	if !errors.As(err, &de) || de.Index != 1 || de.Offset != end || end != headerSize+6 {
		t.Fatalf("flipped last byte: end %d, err %v; want damage at record 1, offset %d", end, err, headerSize+6)
	}

	// A length bit flipped in an interior record makes it run past the
	// end of the file; its frame header check tells that from a torn tail.
	three := AppendRecord(bytes.Clone(good), []byte("tail"))
	three[headerSize+6+1] ^= 0x01
	if _, _, err := collect(t, three); !errors.As(err, &de) || de.Index != 1 || de.Offset != headerSize+6 {
		t.Fatalf("flipped interior length: err %v, want damage at record 1, offset %d", err, headerSize+6)
	}

	// A checked frame header with a length over MaxRecord is damage too.
	huge := binary.LittleEndian.AppendUint32(nil, MaxRecord+1)
	huge = binary.LittleEndian.AppendUint32(huge, 0)
	huge = binary.LittleEndian.AppendUint32(huge, crc32.Checksum(huge, castagnoli))
	if _, _, err := collect(t, huge); !errors.As(err, &de) {
		t.Fatalf("oversized length: err %v, want a DamageError", err)
	}

	if _, _, err := collect(t, []byte(`{"v":1,"key":"k"}`+"\n")); !errors.Is(err, ErrLegacy) {
		t.Fatalf("JSON lines: err %v, want ErrLegacy", err)
	}

	dir := t.TempDir()
	for name, data := range map[string][]byte{"empty": nil, "torn header": good[:5], "torn first payload": good[:headerSize+3]} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := Load(path, func(int64, []byte) error { return nil }); !errors.As(err, &de) {
			t.Errorf("%s: err %v, want a DamageError", name, err)
		}
	}

	refused := errors.New("refused")
	_, _, err = collect(t, good)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Scan(good, func(int64, []byte) error { return refused }); !errors.As(err, &de) || !errors.Is(err, refused) || de.Index != 0 {
		t.Fatalf("reader error: %v, want a DamageError at record 0 wrapping it", err)
	}
}

// TestBraceLengthIsNotLegacy: a journal's first byte is the low byte of
// its header record's length, so a header payload of 123 ('{') or 379
// bytes opens like any other; only an unframed '{' file is ErrLegacy.
func TestBraceLengthIsNotLegacy(t *testing.T) {
	for _, n := range []int{123, 379} {
		path := filepath.Join(t.TempDir(), "j")
		want := [][]byte{bytes.Repeat([]byte{'h'}, n), []byte("snapshot")}
		w, err := Create(path, want[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Append(want[1]); err != nil {
			t.Fatal(err)
		}
		w.Close()
		var got [][]byte
		w, err = Open(path, func(_ int64, p []byte) error { got = append(got, bytes.Clone(p)); return nil })
		if err != nil {
			t.Fatalf("%d-byte header: Open: %v", n, err)
		}
		w.Close()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d-byte header: got %q, want %q", n, got, want)
		}
	}
}

// TestCompact: compaction replaces the contents atomically, leaves no
// temporary file, and the writer keeps appending to the new file.
func TestCompact(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j")
	w, err := Create(path, []byte("header"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := w.Append(bytes.Repeat([]byte{byte(i)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Compact([]byte("header"), []byte("latest")); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	if err := w.Append([]byte("next")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	want := [][]byte{[]byte("header"), []byte("latest"), []byte("next")}
	if got := loadAll(t, path); !reflect.DeepEqual(got, want) {
		t.Fatalf("compacted journal: got %q, want %q", got, want)
	}
	if fi, err := os.Stat(path); err != nil || fi.Size() != w.Size() {
		t.Fatalf("compacted size: stat %v %v, writer says %d", fi, err, w.Size())
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "*.tmp")); len(m) != 0 {
		t.Fatalf("compaction left %v", m)
	}
}

func TestCodecRoundTrip(t *testing.T) {
	var b []byte
	b = append(b, 'T')
	b = binary.AppendUvarint(b, 300)
	b = AppendString(b, "spec:a=1")
	b = AppendStrings(b, []string{"x", "", "yz"})
	b = binary.LittleEndian.AppendUint64(b, 1<<60)
	b = AppendBlob(b, func(dst []byte) []byte { return append(dst, "blob"...) })
	d := NewDecoder(b)
	if d.Byte() != 'T' || d.Int() != 300 || d.String() != "spec:a=1" ||
		!reflect.DeepEqual(d.Strings(), []string{"x", "", "yz"}) || d.Uint64() != 1<<60 || string(d.Blob()) != "blob" {
		t.Fatalf("codec round trip failed: %v", d.Err())
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		d := NewDecoder(b[:cut])
		d.Byte()
		d.Int()
		_ = d.String()
		d.Strings()
		d.Uint64()
		d.Blob()
		if d.Finish() == nil {
			t.Fatalf("payload cut at %d decoded without error", cut)
		}
	}
}

// FuzzJournalScan: for any bytes, Scan either refuses them (a
// *DamageError located at the failing record, or ErrLegacy for a file
// that starts with '{' and whose first frame header does not check), or
// its intact prefix re-frames byte for byte from the payloads it yielded
// at the offsets it gave, and what follows is a torn tail — a partial
// frame header, or a checked one whose payload runs past the end, never
// a whole record. Seeds in testdata/fuzz/FuzzJournalScan: valid, cut at
// a record boundary and mid-record, a flipped payload bit, and JSON
// lines.
func FuzzJournalScan(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var payloads [][]byte
		var framed []byte
		end, err := Scan(data, func(at int64, p []byte) error {
			if at != int64(len(framed)) {
				t.Fatalf("record %d at offset %d, want %d", len(payloads), at, len(framed))
			}
			payloads = append(payloads, p)
			framed = AppendRecord(framed, p)
			return nil
		})
		checks := func(b []byte) bool {
			return len(b) >= 12 && crc32.Checksum(b[:8], crc32.MakeTable(crc32.Castagnoli)) == binary.LittleEndian.Uint32(b[8:])
		}
		if err != nil {
			var de *DamageError
			switch {
			case errors.Is(err, ErrLegacy):
				if data[0] != '{' || checks(data) {
					t.Fatalf("ErrLegacy for a file starting %q whose first frame header checks: %v", data[:min(len(data), 12)], checks(data))
				}
			case errors.As(err, &de):
				if de.Offset != end || de.Index != len(payloads) {
					t.Fatalf("damage at record %d offset %d after %d records ending at %d", de.Index, de.Offset, len(payloads), end)
				}
			default:
				t.Fatalf("untyped scan error: %v", err)
			}
			return
		}
		if !bytes.Equal(framed, data[:end]) {
			t.Fatalf("the intact prefix does not re-frame to itself")
		}
		if tail := data[end:]; len(tail) >= 12 && (!checks(tail) || 12+int64(binary.LittleEndian.Uint32(tail)) <= int64(len(tail))) {
			t.Fatalf("damage or a whole record was dropped as a torn tail")
		}
	})
}

// TestAppendPartsMatchesAppend: a record appended in two parts is the
// record Append writes for the joined payload, byte for byte, and scans
// back as one payload.
func TestAppendPartsMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	head, body := []byte("B\x05\x07"), bytes.Repeat([]byte("body bytes "), 1000)
	joined := append(append([]byte(nil), head...), body...)
	files := map[string]func(w *Writer) error{
		"joined": func(w *Writer) error { return w.Append(joined) },
		"parts":  func(w *Writer) error { return w.AppendParts(head, body) },
		"head":   func(w *Writer) error { return w.AppendParts(joined, nil) },
	}
	var want []byte
	for _, name := range []string{"joined", "parts", "head"} {
		path := filepath.Join(dir, name)
		w, err := Create(path, []byte("header"))
		if err != nil {
			t.Fatal(err)
		}
		if err := files[name](w); err != nil {
			t.Fatal(err)
		}
		size := w.Size()
		w.Close()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(data)) != size {
			t.Fatalf("%s: Size %d, file %d bytes", name, size, len(data))
		}
		if want == nil {
			want = data
		} else if !bytes.Equal(data, want) {
			t.Fatalf("%s: file differs from Append of the joined payload", name)
		}
	}
	if got := loadAll(t, filepath.Join(dir, "parts")); len(got) != 2 || !bytes.Equal(got[1], joined) {
		t.Fatalf("parts scan back as %d records", len(got))
	}
}
