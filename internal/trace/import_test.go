package trace

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"
)

// TestImportTextMalformed pins the error surface of ImportText: every
// malformed capture must be rejected with the one-based line number of
// the offending line, counting blank and comment lines, so a user can
// open the capture in an editor and jump straight to it.
func TestImportTextMalformed(t *testing.T) {
	cases := []struct {
		name     string
		in       string
		wantLine string // substring that must appear in the error
		wantSub  string // secondary substring pinning the cause
	}{
		{
			name:     "no fields after comment",
			in:       "# header\nonlyonefield\n",
			wantLine: "line 2",
			wantSub:  `need "pc taken"`,
		},
		{
			name:     "one field csv",
			in:       "0x1000,1\n0x2000,\n",
			wantLine: "line 2",
			wantSub:  "bad taken",
		},
		{
			name:     "bad pc",
			in:       "0x1000 1\n0xzz 1\n",
			wantLine: "line 2",
			wantSub:  `bad pc "0xzz"`,
		},
		{
			name:     "decimal pc one past the largest",
			in:       "18446744073709551615 1\n18446744073709551616 1\n",
			wantLine: "line 2",
			wantSub:  `bad pc "18446744073709551616"`,
		},
		{
			name:     "17 hex digits",
			in:       "0x1234567890abcdef0 1\n",
			wantLine: "line 1",
			wantSub:  `bad pc "0x1234567890abcdef0"`,
		},
		{
			name:     "0x alone",
			in:       "0x 1\n",
			wantLine: "line 1",
			wantSub:  `bad pc "0x"`,
		},
		{
			name:     "bad pc not hex or decimal",
			in:       "hello! 1\n",
			wantLine: "line 1",
			wantSub:  "bad pc",
		},
		{
			name:     "bad taken flag",
			in:       "0x1000 maybe\n",
			wantLine: "line 1",
			wantSub:  `bad taken flag "maybe"`,
		},
		{
			name:     "blank and comment lines still count",
			in:       "\n# c\n\n0x1000 1\n0x1004 x\n",
			wantLine: "line 5",
			wantSub:  "bad taken",
		},
		{
			name:     "crlf capture",
			in:       "0x1000 1\r\n0x1004 2\r\n",
			wantLine: "line 2",
			wantSub:  "bad taken",
		},
		{
			name:     "csv with spaces",
			in:       "0x1000 , 1\n 0x1004 ,bogus\n",
			wantLine: "line 2",
			wantSub:  "bad taken",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			_, err := ImportText(strings.NewReader(tc.in), "bad")
			if err == nil {
				t.Fatalf("ImportText accepted malformed capture %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantLine) {
				t.Errorf("error %q does not name %s", err, tc.wantLine)
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestImportTextScannerError drives the sc.Err() path: a line longer
// than the scanner buffer fails with bufio.ErrTooLong, and the error
// must still carry the line number of the over-long line (one past the
// last line successfully delivered).
func TestImportTextScannerError(t *testing.T) {
	long := strings.Repeat("f", 2<<20) // 2 MiB, over the 1 MiB scanner cap
	in := "0x1000 1\n0x1004 0\n" + long + " 1\n"
	_, err := ImportText(strings.NewReader(in), "big")
	if err == nil {
		t.Fatalf("ImportText accepted a %d-byte line", len(long))
	}
	if !errors.Is(err, bufio.ErrTooLong) {
		t.Errorf("error %q does not wrap bufio.ErrTooLong", err)
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Errorf("error %q does not name line 3", err)
	}

	// Same failure on the very first line: reported as line 1.
	_, err = ImportText(strings.NewReader(long+" 1\n"), "big")
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("first-line scanner error %q does not name line 1", err)
	}
}

// TestTextScannerBytesTooLong repeats TestImportTextScannerError's 2 MiB
// lines on a scanner over the body in place: the same bufio.ErrTooLong,
// at the same line, after the same records.
func TestTextScannerBytesTooLong(t *testing.T) {
	long := strings.Repeat("f", 2<<20) // 2 MiB, over the 1 MiB line limit
	for _, tc := range []struct {
		in      string
		records int
		line    string
	}{
		{"0x1000 1\n0x1004 0\n" + long + " 1\n", 2, "line 3"},
		{long + " 1\n", 0, "line 1"},
	} {
		sc := NewTextScannerBytes([]byte(tc.in))
		n := 0
		for sc.Scan() {
			n++
		}
		err := sc.Err()
		if err == nil {
			t.Fatalf("accepted a %d-byte line", len(long))
		}
		if !errors.Is(err, bufio.ErrTooLong) {
			t.Errorf("error %q does not wrap bufio.ErrTooLong", err)
		}
		if !strings.Contains(err.Error(), tc.line) || n != tc.records {
			t.Errorf("error %q after %d records, want %s after %d", err, n, tc.line, tc.records)
		}
		if _, ierr := ImportText(strings.NewReader(tc.in), "big"); ierr == nil || ierr.Error() != err.Error() {
			t.Errorf("ImportText error %q, bytes scanner %q", ierr, err)
		}
	}
}

// TestTextScannerLineLimit: around the line limit, with and without a
// final "\n" and with a CRLF ending, both constructors deliver what the
// bufio-based oracle delivers and fail where it fails, at the same line.
// The fuzzer's inputs never come near 1 MiB.
func TestTextScannerLineLimit(t *testing.T) {
	for _, n := range []int{maxLine - 2, maxLine - 1, maxLine, maxLine + 1} {
		line := "0x1" + strings.Repeat(" ", n-4) + "1"
		for _, in := range []string{
			"0x10 0\n" + line + "\n0x20 1\n",
			"0x10 0\n" + line,
			"0x10 0\n" + line[:n-1] + "\r\n0x20 1",
		} {
			for name, got := range map[string]*TextScanner{
				"reader": NewTextScanner(strings.NewReader(in)),
				"bytes":  NewTextScannerBytes([]byte(in)),
			} {
				want := newRefTextScanner(strings.NewReader(in))
				var g, w []Record
				for got.Scan() {
					g = append(g, got.Record())
				}
				for want.Scan() {
					w = append(w, want.rec)
				}
				if !reflect.DeepEqual(g, w) || !reflect.DeepEqual(got.Err(), want.err) {
					t.Errorf("%s, %d-byte line, %q ending: %v, %v; oracle %v, %v",
						name, n, in[len(in)-3:], g, got.Err(), w, want.err)
				}
			}
		}
	}
}

// TestTextScannerReaders: the reader constructor behaves as the
// bufio-based oracle over readers that return a byte at a time, return
// their last bytes with io.EOF, or fail after some bytes: the same
// records, a partial last line delivered, and the reader's error at the
// line after it.
func TestTextScannerReaders(t *testing.T) {
	body := "0x10 1\r\n\n# c\n0x20,0\n" + "0x30" + strings.Repeat(" ", 100<<10) + "1\n0x40 t"
	boom := errors.New("boom")
	for name, r := range map[string]func() io.Reader{
		"one byte": func() io.Reader { return iotest.OneByteReader(strings.NewReader(body)) },
		"data+EOF": func() io.Reader { return iotest.DataErrReader(strings.NewReader(body)) },
		"fails":    func() io.Reader { return io.MultiReader(strings.NewReader(body), iotest.ErrReader(boom)) },
	} {
		got, want := NewTextScanner(r()), newRefTextScanner(r())
		var g, w []Record
		for got.Scan() {
			g = append(g, got.Record())
		}
		for want.Scan() {
			w = append(w, want.rec)
		}
		if len(g) != 4 || !reflect.DeepEqual(g, w) || !reflect.DeepEqual(got.Err(), want.err) {
			t.Errorf("%s: %v, %v; oracle %v, %v", name, g, got.Err(), w, want.err)
		}
	}
}

// TestTextScannerStreaming: the record-at-a-time scanner yields exactly
// what ImportText materializes, and its site table lists the PCs in the
// order their ids were given.
func TestTextScannerStreaming(t *testing.T) {
	in := "0x1000 1\n0x2000 0\n0x1000 0\n# note\n0x3000 t\n"
	want, err := ImportText(strings.NewReader(in), "w")
	if err != nil {
		t.Fatalf("ImportText: %v", err)
	}
	sc := NewTextScanner(strings.NewReader(in))
	var got []Record
	for sc.Scan() {
		got = append(got, sc.Record())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanner: %v", err)
	}
	if len(got) != want.Len() {
		t.Fatalf("scanner yielded %d records, ImportText %d", len(got), want.Len())
	}
	for i, r := range want.Records() {
		if got[i] != r {
			t.Errorf("record %d: scanner %+v != ImportText %+v", i, got[i], r)
		}
	}

	if sites := sc.Sites(); !slices.Equal(sites, []uint64{0x1000, 0x2000, 0x3000}) {
		t.Errorf("Sites() = %#x, want 0x1000, 0x2000, 0x3000 in id order", sites)
	}
}

// TestTextScannerErrorStops: after a malformed line the scanner stays
// stopped — Scan keeps returning false and Err keeps the first error —
// and the line number matches ImportText's report for the same input.
func TestTextScannerErrorStops(t *testing.T) {
	in := "0x1000 1\n0x2000 maybe\n0x3000 1\n"
	sc := NewTextScanner(strings.NewReader(in))
	n := 0
	for sc.Scan() {
		n++
	}
	if n != 1 {
		t.Fatalf("scanner delivered %d records before the bad line, want 1", n)
	}
	err := sc.Err()
	if err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Fatalf("scanner error %v does not name line 2", err)
	}
	if sc.Scan() {
		t.Errorf("Scan returned true after an error")
	}
	if sc.Err() != err {
		t.Errorf("Err changed after the failed re-Scan")
	}
	_, ierr := ImportText(strings.NewReader(in), "w")
	if ierr == nil || ierr.Error() != err.Error() {
		t.Errorf("ImportText error %q != scanner error %q", ierr, err)
	}
}

// TestImportTextEmpty: a capture of only blanks and comments is a
// well-formed empty trace that still declares one static site.
func TestImportTextEmpty(t *testing.T) {
	m, err := ImportText(strings.NewReader("# nothing here\n\n"), "empty")
	if err != nil {
		t.Fatalf("ImportText: %v", err)
	}
	if m.Len() != 0 {
		t.Fatalf("empty capture produced %d records", m.Len())
	}
	if m.StaticCount() != 1 {
		t.Fatalf("empty capture static count %d, want 1", m.StaticCount())
	}
}

// TestTextScannerAllocs: once every PC is in the site table, scanning an
// ASCII capture allocates nothing per record. The capture's 509 PCs all
// appear in its first 509 lines, so the scanner's setup and its site
// table's growth are the whole cost, and twice the lines cost exactly as
// many allocations. The
// same holds for a scanner over the body in place, whose allocations per
// scanner also stay the same for a body 64 times as long.
func TestTextScannerAllocs(t *testing.T) {
	var sb strings.Builder
	for i := 0; i < 8192; i++ {
		fmt.Fprintf(&sb, "0x%x %d\n", 0x400000+4*(i%509), i%2)
	}
	body := []byte(sb.String())
	allocs := func(lines int) float64 {
		in := body[:len(body)*lines/8192]
		return testing.AllocsPerRun(20, func() {
			sc := NewTextScanner(bytes.NewReader(in))
			n := 0
			for sc.Scan() {
				n++
			}
			if sc.Err() != nil || n != lines {
				t.Fatalf("scanned %d of %d lines: %v", n, lines, sc.Err())
			}
		})
	}
	if half, full := allocs(4096), allocs(8192); half != full {
		t.Errorf("%v allocations for 4096 lines, %v for 8192: the scan allocates per record", half, full)
	}

	long := bytes.Repeat(body, 64)
	inPlace := func(in []byte) float64 {
		return testing.AllocsPerRun(20, func() {
			sc := NewTextScannerBytes(in)
			n := 0
			for sc.Scan() {
				n++
			}
			if sc.Err() != nil || n != bytes.Count(in, []byte("\n")) {
				t.Fatalf("in place: scanned %d lines of a %d-byte body: %v", n, len(in), sc.Err())
			}
		})
	}
	if half, full, big := inPlace(body[:len(body)/2]), inPlace(body), inPlace(long); half != full || full != big {
		t.Errorf("in place: %v allocations for 4096 lines, %v for 8192, %v for %d: the scan allocates per record or per byte",
			half, full, big, 64*8192)
	}
}
