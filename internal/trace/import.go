package trace

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// External-capture import and decoding: the entry points cmd/tracecat
// and cmd/tracegen use to accept traces that did not originate here —
// externally captured (pc, taken) text/CSV files — and to read BMC1
// files back.

// Decode opens a BMC1 trace with OpenColumnar and materializes every
// block into one fresh, zeroed []Record of the whole trace. Anything
// that is not BMC1 fails at byte 0 with the bad-magic
// *ColumnarDecodeError. It is for callers that want the records as a
// slice (cmd/tracecat, cmd/tracegen, the api.DecodeTrace facade, the
// benchmark). Anything that only iterates batches should take
// OpenColumnar's zero-copy handle and its BlockStream instead, as the
// prediction service does for its request bodies.
func Decode(data []byte) (*Memory, error) {
	c, err := OpenColumnar(data)
	if err != nil {
		return nil, err
	}
	return MaterializeContext(context.Background(), c)
}

// IsColumnar reports whether data starts with the columnar magic.
func IsColumnar(data []byte) bool {
	return len(data) >= len(columnarMagic) && string(data[:len(columnarMagic)]) == columnarMagic
}

// TextScanner parses a simple external branch capture record at a time:
// one dynamic branch per line as "pc taken" or "pc,taken" (CSV), where
// pc is hexadecimal (with or without 0x) or decimal and taken is 1/0,
// t/n, T/N, taken/not. Blank lines and lines starting with '#' are
// skipped. Static site ids are assigned densely in first-appearance
// order of the PC, through an IDTable — the identifier contract workload
// generators follow.
//
// A scanner reads an io.Reader through a window it refills
// (NewTextScanner), or parses a body already in memory where it lies,
// never writing to it (NewTextScannerBytes); cmd/predserve parses each
// request body the second way. Both cut lines by the rules of the
// bufio.Scanner the format was first read with: a line ends at "\n",
// one trailing "\r" is dropped, a last line without "\n" still counts,
// and a line of maxLine bytes or more fails with an error wrapping
// bufio.ErrTooLong.
//
// Usage follows bufio.Scanner: Scan until it returns false, reading each
// Record, then check Err. Errors carry the one-based line number of the
// offending line (blank and comment lines count), exactly as ImportText
// reports them.
type TextScanner struct {
	buf    []byte    // the body, or the reader's window; buf[pos:] is unread
	pos    int       // the start of the next line in buf
	r      io.Reader // the reader still to drain: nil once it ended, and for a body
	rerr   error     // the error the reader ended with, io.EOF at a clean end
	sites  IDTable   // PC -> static id
	rec    Record
	err    error
	lineNo int
}

// maxLine bounds a line, its "\n" included: bufio.Scanner's token limit
// as the scanner was first configured, so that the same line fails.
const maxLine = 1 << 20

// NewTextScanner returns a scanner over r with a fresh site table.
func NewTextScanner(r io.Reader) *TextScanner {
	return &TextScanner{buf: make([]byte, 0, 64<<10), r: r}
}

// NewTextScannerBytes returns a scanner over body with a fresh site
// table. It reads body in place and never modifies it.
func NewTextScannerBytes(body []byte) *TextScanner {
	return &TextScanner{buf: body}
}

// Sites returns every PC seen so far in static id order: Sites()[id] is
// id's PC. The slice is the scanner's own; callers must not modify it.
func (s *TextScanner) Sites() []uint64 { return s.sites.Keys() }

// Record returns the record parsed by the last successful Scan.
func (s *TextScanner) Record() Record { return s.rec }

// Err returns the first error the scan hit, nil at clean end of input.
func (s *TextScanner) Err() error { return s.err }

// Scan advances to the next record, skipping blanks and comments, and
// gives its PC a static id from the site table. It returns false at end
// of input or on the first malformed line; Err distinguishes the two.
func (s *TextScanner) Scan() bool {
	pc, taken, ok := s.Next()
	if !ok {
		return false
	}
	st, _ := s.sites.ID(pc)
	s.rec = Record{PC: pc, Static: st, Taken: taken}
	return true
}

// Next is Scan without the site table: it advances to the next record
// and returns its PC and direction, leaving the static id to the caller,
// and Record does not change. It returns ok false where Scan returns
// false.
//
// Each line goes first through scanLine, one pass over its bytes that
// allocates nothing. A line it does not accept — a field holding a byte
// at or above 0x80, or anything malformed — goes to parseLine, the
// string parser, which alone decides such lines and words every error.
func (s *TextScanner) Next() (pc uint64, taken, ok bool) {
	for s.err == nil {
		line, more := s.line()
		if !more {
			break
		}
		s.lineNo++
		pc, taken, kind := scanLine(line)
		if kind == lineOther {
			pc, taken, kind, s.err = s.parseLine(string(line))
		}
		if kind == lineRecord && s.err == nil {
			return pc, taken, true
		}
	}
	return 0, false, false
}

// line cuts the next line, without its "\n" and one trailing "\r", from
// the unread bytes, refilling a reader's window until they hold a "\n"
// or the reader has ended. It returns false at the end of input, setting
// s.err when the reader failed or the line is maxLine bytes or longer.
// Either error belongs to the line after the last one delivered.
func (s *TextScanner) line() ([]byte, bool) {
	rest := s.buf[s.pos:]
	n := bytes.IndexByte(rest, '\n')
	for n < 0 && s.r != nil && len(rest) < maxLine {
		s.fill()
		rest = s.buf[s.pos:]
		n = bytes.IndexByte(rest, '\n')
	}
	next := s.pos + n + 1
	if n < 0 {
		n, next = len(rest), len(s.buf)
	}
	switch {
	case n >= maxLine:
		s.err = fmt.Errorf("trace: import line %d: %w", s.lineNo+1, bufio.ErrTooLong)
		return nil, false
	case len(rest) == 0:
		if s.rerr != nil && s.rerr != io.EOF {
			s.err = fmt.Errorf("trace: import line %d: %w", s.lineNo+1, s.rerr)
		}
		return nil, false
	}
	s.pos = next
	line := rest[:n]
	if n > 0 && line[n-1] == '\r' {
		line = line[:n-1]
	}
	return line, true
}

// fill moves a reader's unread bytes to the front of its window, doubling
// the window up to maxLine when they fill it, and reads more behind them.
// A reader that returns nothing 100 times running ends with
// io.ErrNoProgress, as under bufio.Scanner.
func (s *TextScanner) fill() {
	rest := s.buf[s.pos:]
	if len(rest) == cap(s.buf) {
		s.buf = make([]byte, 0, min(2*cap(s.buf), maxLine))
	}
	s.buf, s.pos = s.buf[:copy(s.buf[:cap(s.buf)], rest)], 0
	for empties := 0; ; {
		n, err := s.r.Read(s.buf[len(s.buf):cap(s.buf)])
		s.buf = s.buf[:len(s.buf)+n]
		switch {
		case err != nil:
			s.r, s.rerr = nil, err
			return
		case n > 0:
			return
		}
		if empties++; empties == 100 {
			s.r, s.rerr = nil, io.ErrNoProgress
			return
		}
	}
}

// lineKind is what one capture line holds.
type lineKind uint8

const (
	lineRecord lineKind = iota // a (pc, taken) record
	lineSkip                   // a blank or '#' comment line
	lineOther                  // undecided by scanLine: parseLine decides
)

// scanLine is parseLine's accepting half for ASCII fields, in one
// forward pass: leading white space, a blank or '#' line, the PC token,
// the first ',' or else a white-space run, the flag token and trailing
// white space. A CSV line ends there or at its next ',' (later fields
// are ignored, as parseLine ignores them); a white-space line must end
// there, since a ',' anywhere makes parseLine split it as CSV, and
// further fields are left to parseLine. White space is the six ASCII
// bytes strings.TrimSpace and strings.Fields treat as space.
//
// Every other line is lineOther, so scanLine need not agree with
// parseLine on a rejection, only on what it accepts: an accepted field
// holds only ASCII bytes, where Unicode trimming, splitting and case
// folding reduce to the ASCII rules used here.
func scanLine(b []byte) (pc uint64, taken bool, kind lineKind) {
	i := skipSpace(b, 0)
	if i == len(b) || b[i] == '#' {
		return 0, false, lineSkip
	}
	pc, i, ok := scanPC(b, i)
	if !ok {
		return 0, false, lineOther
	}
	i = skipSpace(b, i)
	csv := i < len(b) && b[i] == ','
	if csv {
		i = skipSpace(b, i+1)
	}
	j := i
	for j < len(b) && !isSpace(b[j]) && b[j] != ',' {
		j++
	}
	if taken, ok = scanTaken(b[i:j]); !ok {
		return 0, false, lineOther
	}
	if j = skipSpace(b, j); j < len(b) && (!csv || b[j] != ',') {
		return 0, false, lineOther
	}
	return pc, taken, lineRecord
}

// isSpace reports whether c is ASCII white space: '\t', '\n', '\v',
// '\f', '\r' or ' '.
func isSpace(c byte) bool { return c == ' ' || c-'\t' <= '\r'-'\t' }

// skipSpace returns the index of the first byte of b at or after i that
// is not ASCII white space, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

// scanPC is parsePC's accepting half: it reads the PC token at b[i:] as
// 0x- or 0X-prefixed hex, else decimal, else bare hex, each refused on
// overflow as strconv.ParseUint refuses it, and returns the index past
// the token. An unprefixed token accumulates its decimal and hex values
// side by side in the one pass. The token must end the line or be
// followed by white space or ','.
func scanPC(b []byte, i int) (pc uint64, end int, ok bool) {
	start, decOK := i, true
	if i+1 < len(b) && b[i] == '0' && b[i+1]|0x20 == 'x' {
		start, decOK = i+2, false
	}
	var dec, hex uint64
	for i = start; i < len(b); i++ {
		d := uint64(hexDigit[b[i]])
		if d > 15 {
			break
		}
		if decOK {
			decOK = d <= 9 && dec <= (math.MaxUint64-d)/10
			dec = dec*10 + d
		}
		hex = hex<<4 | d
	}
	switch {
	case i == start || i < len(b) && !isSpace(b[i]) && b[i] != ',':
		return 0, i, false
	case decOK:
		return dec, i, true
	}
	// Hex overflows past 16 digits, leading zeros aside.
	for start < i-16 && b[start] == '0' {
		start++
	}
	return hex, i, i-start <= 16
}

// hexDigit maps a byte to its value as a hex digit, or to 0xff.
var hexDigit = func() (t [256]uint8) {
	for c := range t {
		switch {
		case '0' <= c && c <= '9':
			t[c] = uint8(c - '0')
		case 'a' <= c|0x20 && c|0x20 <= 'f':
			t[c] = uint8(c|0x20-'a') + 10
		default:
			t[c] = 0xff
		}
	}
	return t
}()

// scanTaken is parseTaken's accepting half: the flag matched in place
// against the spellings, folding only ASCII letters. A one-byte flag,
// the usual kind, is a table lookup.
func scanTaken(f []byte) (taken, ok bool) {
	if len(f) == 1 {
		v := oneByteFlag[f[0]]
		return v == flagTaken, v != 0
	}
	for i := range flagSpellings {
		if sp := &flagSpellings[i]; len(f) == len(sp.s) && foldEqual(f, sp.s) {
			return sp.taken, true
		}
	}
	return false, false
}

// oneByteFlag maps each byte to the one-byte flag it spells in either
// case, flagTaken or flagNotTaken, or to 0.
var oneByteFlag = func() (t [256]uint8) {
	for _, sp := range flagSpellings {
		if c := sp.s[0]; len(sp.s) == 1 {
			v := uint8(flagNotTaken)
			if sp.taken {
				v = flagTaken
			}
			t[c] = v
			if 'a' <= c && c <= 'z' {
				t[c-'a'+'A'] = v
			}
		}
	}
	return t
}()

const (
	flagNotTaken = 1
	flagTaken    = 2
)

// foldEqual reports whether f, with A–Z folded to lower case, equals the
// lower-case s of the same length.
func foldEqual(f []byte, s string) bool {
	for i := range len(s) {
		c := f[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// flagSpellings are the direction flags real capture tools emit, lower
// case, the two digits first as the most common.
var flagSpellings = [...]struct {
	s     string
	taken bool
}{
	{"1", true}, {"0", false},
	{"t", true}, {"taken", true}, {"true", true}, {"y", true},
	{"n", false}, {"not", false}, {"not-taken", false}, {"false", false}, {"nt", false},
}

// parseLine is the string parser for one line, the only one that runs on
// non-ASCII input and the one that words every error: a blank or comment
// line, a record, or an error carrying the line's one-based number.
func (s *TextScanner) parseLine(text string) (pc uint64, taken bool, kind lineKind, err error) {
	line := strings.TrimSpace(text)
	if line == "" || strings.HasPrefix(line, "#") {
		return 0, false, lineSkip, nil
	}
	var fields []string
	if strings.Contains(line, ",") {
		fields = strings.Split(line, ",")
	} else {
		fields = strings.Fields(line)
	}
	if len(fields) < 2 {
		return 0, false, 0, fmt.Errorf("trace: import line %d: need \"pc taken\", got %q", s.lineNo, line)
	}
	pc, err = parsePC(strings.TrimSpace(fields[0]))
	if err != nil {
		return 0, false, 0, fmt.Errorf("trace: import line %d: %v", s.lineNo, err)
	}
	taken, err = parseTaken(strings.TrimSpace(fields[1]))
	if err != nil {
		return 0, false, 0, fmt.Errorf("trace: import line %d: %v", s.lineNo, err)
	}
	return pc, taken, lineRecord, nil
}

// ImportText drains a TextScanner over r into a materialized trace; see
// TextScanner for the accepted formats and the error contract.
func ImportText(r io.Reader, name string) (*Memory, error) {
	sc := NewTextScanner(r)
	var recs []Record
	for sc.Scan() {
		recs = append(recs, sc.Record())
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	statics := sc.sites.Len()
	if statics == 0 {
		statics = 1 // a well-formed empty trace still declares a site space
	}
	return NewMemory(name, statics, recs), nil
}

// parsePC accepts 0x-prefixed hex, bare hex containing hex letters, and
// decimal branch addresses.
func parsePC(s string) (uint64, error) {
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

// parseTaken accepts the direction spellings real capture tools emit.
func parseTaken(s string) (bool, error) {
	lower := strings.ToLower(s)
	for _, sp := range flagSpellings {
		if lower == sp.s {
			return sp.taken, nil
		}
	}
	return false, fmt.Errorf("bad taken flag %q (want 1/0, t/n, taken/not)", s)
}
