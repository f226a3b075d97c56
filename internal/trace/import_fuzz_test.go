package trace

// Differential fuzzing of TextScanner against refTextScanner, the string
// parser TextScanner.Scan ran on every line before the byte-level pass:
// a verbatim copy, kept here as the oracle. A scanner from each
// constructor (NewTextScanner over a reader, NewTextScannerBytes over
// the body in place) reads the same body as the oracle and must deliver
// the same records, leave the same site table and stop with the same
// error text, line number included; the body must come out unmodified. The seed corpus in
// testdata/fuzz/FuzzTextScanner covers CRLF endings, tab, \v and \f
// separators, a U+00A0 separator, a flag spelled with U+212A, 0X and a
// bare 0x, the largest decimal PC and one past it, a 17-hex-digit PC, CSV
// extra fields, comments, blanks and a one-field line.

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
)

type refTextScanner struct {
	sc     *bufio.Scanner
	sites  map[uint64]uint32
	rec    Record
	err    error
	lineNo int
}

func newRefTextScanner(r io.Reader) *refTextScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &refTextScanner{sc: sc, sites: map[uint64]uint32{}}
}

func (s *refTextScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.lineNo++
		line := strings.TrimSpace(s.sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		var fields []string
		if strings.Contains(line, ",") {
			fields = strings.Split(line, ",")
		} else {
			fields = strings.Fields(line)
		}
		if len(fields) < 2 {
			s.err = fmt.Errorf("trace: import line %d: need \"pc taken\", got %q", s.lineNo, line)
			return false
		}
		pc, err := refParsePC(strings.TrimSpace(fields[0]))
		if err != nil {
			s.err = fmt.Errorf("trace: import line %d: %v", s.lineNo, err)
			return false
		}
		taken, err := refParseTaken(strings.TrimSpace(fields[1]))
		if err != nil {
			s.err = fmt.Errorf("trace: import line %d: %v", s.lineNo, err)
			return false
		}
		st, ok := s.sites[pc]
		if !ok {
			st = uint32(len(s.sites))
			s.sites[pc] = st
		}
		s.rec = Record{PC: pc, Static: st, Taken: taken}
		return true
	}
	if err := s.sc.Err(); err != nil {
		// A scanner error surfaces while reading the line after the last
		// one delivered, so the failing line is lineNo+1.
		s.err = fmt.Errorf("trace: import line %d: %w", s.lineNo+1, err)
	}
	return false
}

func refParsePC(s string) (uint64, error) {
	lower := strings.ToLower(s)
	if v, ok := strings.CutPrefix(lower, "0x"); ok {
		pc, err := strconv.ParseUint(v, 16, 64)
		if err != nil {
			return 0, fmt.Errorf("bad pc %q: %v", s, err)
		}
		return pc, nil
	}
	if pc, err := strconv.ParseUint(lower, 10, 64); err == nil {
		return pc, nil
	}
	pc, err := strconv.ParseUint(lower, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("bad pc %q: %v", s, err)
	}
	return pc, nil
}

func refParseTaken(s string) (bool, error) {
	switch strings.ToLower(s) {
	case "1", "t", "taken", "true", "y":
		return true, nil
	case "0", "n", "not", "not-taken", "false", "nt":
		return false, nil
	}
	return false, fmt.Errorf("bad taken flag %q (want 1/0, t/n, taken/not)", s)
}

func FuzzTextScanner(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		orig := bytes.Clone(body)
		for _, c := range []struct {
			name string
			got  *TextScanner
		}{
			{"reader", NewTextScanner(bytes.NewReader(body))},
			{"bytes", NewTextScannerBytes(body)},
		} {
			got := c.got
			want := newRefTextScanner(bytes.NewReader(body))
			for n := 0; ; n++ {
				g, w := got.Scan(), want.Scan()
				if g != w {
					t.Fatalf("%s: record %d: Scan %v, oracle %v (err %v / %v)", c.name, n, g, w, got.Err(), want.err)
				}
				if !g {
					break
				}
				if got.Record() != want.rec {
					t.Fatalf("%s: record %d: %+v, oracle %+v", c.name, n, got.Record(), want.rec)
				}
			}
			if !reflect.DeepEqual(got.Err(), want.err) {
				t.Fatalf("%s: error %q, oracle %q", c.name, got.Err(), want.err)
			}
			wantPCs := make([]uint64, len(want.sites))
			for pc, st := range want.sites {
				wantPCs[st] = pc
			}
			if !slices.Equal(got.Sites(), wantPCs) {
				t.Fatalf("%s: site table %v, oracle %v", c.name, got.Sites(), wantPCs)
			}
		}
		if !bytes.Equal(body, orig) {
			t.Fatalf("the scanners wrote to the body")
		}
	})
}
