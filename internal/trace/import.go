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

// External-capture import and format sniffing: the entry points
// cmd/tracecat and cmd/tracegen use to accept traces that did not
// originate here — externally captured (pc, taken) text/CSV files and
// on-disk traces in either binary format.

// Decode sniffs the magic of an encoded trace and materializes it: row
// varint files ("BMT1") through Read, columnar files ("BMC1") through
// OpenColumnar and then every block into one fresh, zeroed []Record of
// the whole trace. It is for callers that want the records as a slice
// (cmd/tracecat, cmd/tracegen, the api.DecodeTrace facade, the
// benchmark). Anything that only iterates batches should take
// OpenColumnar's zero-copy handle and its BlockStream instead, as the
// prediction service does for its request bodies.
func Decode(data []byte) (*Memory, error) {
	if len(data) >= len(columnarMagic) && string(data[:len(columnarMagic)]) == columnarMagic {
		c, err := OpenColumnar(data)
		if err != nil {
			return nil, err
		}
		return MaterializeContext(context.Background(), c)
	}
	return Read(bytes.NewReader(data))
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
// order of the PC — the identifier contract workload generators follow —
// and the site table can be seeded and carried across scanners, which is
// how a long-running ingest (cmd/predserve) keeps one consistent id
// space over many request bodies without ever materializing a whole
// capture.
//
// Usage follows bufio.Scanner: Scan until it returns false, reading each
// Record, then check Err. Errors carry the one-based line number of the
// offending line (blank and comment lines count), exactly as ImportText
// reports them.
type TextScanner struct {
	sc     *bufio.Scanner
	sites  map[uint64]uint32
	rec    Record
	err    error
	lineNo int
}

// NewTextScanner returns a scanner over r with a fresh site table.
func NewTextScanner(r io.Reader) *TextScanner {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	return &TextScanner{sc: sc, sites: map[uint64]uint32{}}
}

// SetSites replaces the scanner's site table with sites (pc -> static
// id), so new PCs extend an existing id space. The map is used directly,
// not copied; ids already present must be dense in [0, len(sites)).
func (s *TextScanner) SetSites(sites map[uint64]uint32) {
	if sites == nil {
		sites = map[uint64]uint32{}
	}
	s.sites = sites
}

// Sites exposes the scanner's live site table: every PC seen so far
// mapped to its dense static id. Callers must not mutate it mid-scan.
func (s *TextScanner) Sites() map[uint64]uint32 { return s.sites }

// Record returns the record parsed by the last successful Scan.
func (s *TextScanner) Record() Record { return s.rec }

// Err returns the first error the scan hit, nil at clean end of input.
func (s *TextScanner) Err() error { return s.err }

// Scan advances to the next record, skipping blanks and comments. It
// returns false at end of input or on the first malformed line; Err
// distinguishes the two.
//
// Each line goes first through scanLine, one pass over the scanner's
// bytes that allocates nothing. A line it does not accept — a field
// holding a byte at or above 0x80, or anything malformed — goes to
// parseLine, the string parser, which alone decides such lines and words
// every error.
func (s *TextScanner) Scan() bool {
	if s.err != nil {
		return false
	}
	for s.sc.Scan() {
		s.lineNo++
		pc, taken, kind := scanLine(s.sc.Bytes())
		if kind == lineOther {
			pc, taken, kind, s.err = s.parseLine(s.sc.Text())
			if s.err != nil {
				return false
			}
		}
		if kind == lineSkip {
			continue
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

// lineKind is what one capture line holds.
type lineKind uint8

const (
	lineRecord lineKind = iota // a (pc, taken) record
	lineSkip                   // a blank or '#' comment line
	lineOther                  // undecided by scanLine: parseLine decides
)

// scanLine is the byte-level form of parseLine for ASCII fields. It
// trims the line as strings.TrimSpace does, skips blank and '#' lines,
// splits on the first ',' (later fields ignored) or else on ASCII
// white-space runs, and parses the first two fields in place. It returns lineOther for every line it
// does not accept, so it need not agree with parseLine on a rejection,
// only on what it accepts: an accepted field holds only ASCII bytes,
// where Unicode splitting and case folding reduce to the ASCII rules
// used here.
func scanLine(b []byte) (pc uint64, taken bool, kind lineKind) {
	line := bytes.TrimSpace(b)
	if len(line) == 0 || line[0] == '#' {
		return 0, false, lineSkip
	}
	var f0, f1 []byte
	if before, after, ok := bytes.Cut(line, []byte(",")); ok {
		f1, _, _ = bytes.Cut(after, []byte(","))
		f0, f1 = bytes.TrimSpace(before), bytes.TrimSpace(f1)
	} else {
		f0 = line[:spaceIndex(line)]
		f1 = bytes.TrimSpace(line[len(f0):])
		f1 = f1[:spaceIndex(f1)]
	}
	pc, ok := scanPC(f0)
	if !ok {
		return 0, false, lineOther
	}
	if taken, ok = scanTaken(f1); !ok {
		return 0, false, lineOther
	}
	return pc, taken, lineRecord
}

// spaceIndex returns the index of the first ASCII white-space byte in b
// (one strings.Fields splits on), or len(b).
func spaceIndex(b []byte) int {
	for i, c := range b {
		switch c {
		case ' ', '\t', '\n', '\v', '\f', '\r':
			return i
		}
	}
	return len(b)
}

// scanPC is parsePC's accepting half: 0x- or 0X-prefixed hex, else
// decimal, else bare hex, each refused on overflow as strconv.ParseUint
// refuses it.
func scanPC(f []byte) (uint64, bool) {
	if len(f) >= 2 && f[0] == '0' && f[1]|0x20 == 'x' {
		return scanHex(f[2:])
	}
	if v, ok := scanDecimal(f); ok {
		return v, true
	}
	return scanHex(f)
}

func scanDecimal(f []byte) (uint64, bool) {
	if len(f) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range f {
		d := uint64(c - '0')
		if d > 9 || v > (math.MaxUint64-d)/10 {
			return 0, false
		}
		v = v*10 + d
	}
	return v, true
}

func scanHex(f []byte) (uint64, bool) {
	if len(f) == 0 {
		return 0, false
	}
	var v uint64
	for _, c := range f {
		var d uint64
		switch {
		case '0' <= c && c <= '9':
			d = uint64(c - '0')
		case 'a' <= c|0x20 && c|0x20 <= 'f':
			d = uint64(c|0x20-'a') + 10
		default:
			return 0, false
		}
		if v>>60 != 0 {
			return 0, false
		}
		v = v<<4 | d
	}
	return v, true
}

// scanTaken is parseTaken for ASCII case folding only.
func scanTaken(f []byte) (taken, ok bool) {
	var low [len("not-taken")]byte
	if len(f) > len(low) {
		return false, false
	}
	for i, c := range f {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		low[i] = c
	}
	return takenSpelling(string(low[:len(f)]))
}

// takenSpelling matches a lower-case direction flag against the
// spellings real capture tools emit.
func takenSpelling(s string) (taken, ok bool) {
	switch s {
	case "1", "t", "taken", "true", "y":
		return true, true
	case "0", "n", "not", "not-taken", "false", "nt":
		return false, true
	}
	return false, false
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
	statics := len(sc.Sites())
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
	if taken, ok := takenSpelling(strings.ToLower(s)); ok {
		return taken, nil
	}
	return false, fmt.Errorf("bad taken flag %q (want 1/0, t/n, taken/not)", s)
}
