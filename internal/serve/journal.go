package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"bimode/internal/sim"
)

// The per-session journal: an append-only JSONL file, one per session,
// holding the session's immutable header followed by one full state
// snapshot per committed ingest request. It follows the idiom of
// sim.Journal (PR 5) — every line flushed as written, a torn trailing
// line tolerated as the residue of a killed writer, damage anywhere else
// refused rather than guessed at — but where sim.Journal checkpoints a
// batch run's (seq, idx) cells, this journal checkpoints a live session:
// the last good snapshot line IS the session's durable state, and a
// server (re)start or an LRU eviction recovers a session by replaying
// nothing — it just reloads that snapshot.
//
// One writer per journal: a session's requests are serialized under the
// session lock, so exactly one goroutine ever appends to a given file
// (the invariant sim.Journal documents in DESIGN.md §11; the concurrent-
// sessions test there pins that many journals in parallel are fine, one
// writer each).
//
// Growth is bounded by compaction: once the file exceeds the configured
// threshold, it is rewritten as header + latest snapshot into a temp
// file and atomically renamed into place, so a long-lived session's
// journal stays proportional to its state, not its request count.

// journalVersion guards the line schema. Version 2 replaced the
// hand-kept per-spec counters of version 1 with sim.Observer snapshots;
// a version-1 journal is refused (and quarantined), never converted.
const journalVersion = 2

// sessionHeader is the journal's first line: the session's identity and
// admitted plan, immutable for the session's life.
type sessionHeader struct {
	V         int      `json:"v"`
	ID        string   `json:"id"`
	Name      string   `json:"name,omitempty"`
	Specs     []string `json:"specs"`
	Footnotes []string `json:"footnotes,omitempty"`
}

// sessionSnap is one committed state snapshot: everything needed to
// rebuild the session exactly — the site table (dense static id -> PC,
// so the slice index is the id), the cursor, runtime footnotes accrued
// since creation, and per-spec state.
type sessionSnap struct {
	Cursor    int        `json:"cursor"`
	PCs       []uint64   `json:"pcs,omitempty"`
	Footnotes []string   `json:"footnotes,omitempty"`
	Specs     []specSnap `json:"specs"`
}

// specSnap is one predictor's slice of a snapshot: a live spec's
// sim.Observer snapshot (predictor state and every metric, in the
// observer's binary codec), or a failed spec's report, frozen when a
// runtime panic disabled it (see session.feed).
type specSnap struct {
	Spec     string      `json:"spec"`
	Observer []byte      `json:"observer,omitempty"`
	Frozen   *sim.Report `json:"frozen,omitempty"`
}

// journalLine is the on-disk union: exactly one field set per line.
type journalLine struct {
	Header *sessionHeader `json:"header,omitempty"`
	Snap   *sessionSnap   `json:"snap,omitempty"`
}

// sessionJournal is the open handle a resident session appends through.
type sessionJournal struct {
	path      string
	hdr       sessionHeader
	f         *os.File
	w         *bufio.Writer
	size      int64
	compactAt int64
}

// journalPath maps a session id to its file.
func journalPath(dir, id string) string {
	return filepath.Join(dir, id+".session")
}

// createSessionJournal starts a fresh journal, writing the header line.
func createSessionJournal(path string, hdr sessionHeader, compactAt int64) (*sessionJournal, error) {
	hdr.V = journalVersion
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	j := &sessionJournal{path: path, hdr: hdr, f: f, w: bufio.NewWriter(f), compactAt: compactAt}
	if err := j.writeLine(journalLine{Header: &j.hdr}); err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	return j, nil
}

// readSessionHeader parses just the header line; the startup scan uses
// it to register spilled sessions without loading their state.
func readSessionHeader(path string) (sessionHeader, error) {
	f, err := os.Open(path)
	if err != nil {
		return sessionHeader{}, err
	}
	defer f.Close()
	hdr, _, err := loadJournal(f)
	return hdr, err
}

// openSessionJournal loads a journal — header plus the last good
// snapshot, nil if none was ever committed — and reopens it for
// appending. A torn final line is tolerated; any other damage is an
// error and the session is unrecoverable by contract (the caller
// quarantines the file rather than serving guessed state).
func openSessionJournal(path string, compactAt int64) (*sessionJournal, *sessionSnap, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, nil, err
	}
	hdr, snap, err := loadJournal(f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	size, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	j := &sessionJournal{path: path, hdr: hdr, f: f, w: bufio.NewWriter(f), size: size, compactAt: compactAt}
	return j, snap, nil
}

// loadJournal scans r, returning the header and the last good snapshot.
func loadJournal(r io.Reader) (sessionHeader, *sessionSnap, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	var hdr sessionHeader
	var snap *sessionSnap
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var line journalLine
		if err := json.Unmarshal(raw, &line); err != nil {
			// The torn-tail rule of sim.Journal: a malformed final line is
			// the residue of a killed writer and loses only the request it
			// was acknowledging; malformed anywhere else, the file lies.
			if lineNo > 1 && !sc.Scan() {
				break
			}
			return hdr, nil, fmt.Errorf("serve: session journal line %d malformed: %v", lineNo, err)
		}
		switch {
		case lineNo == 1:
			if line.Header == nil {
				return hdr, nil, fmt.Errorf("serve: session journal does not start with a header")
			}
			if line.Header.V != journalVersion {
				return hdr, nil, fmt.Errorf("serve: session journal version %d, want %d", line.Header.V, journalVersion)
			}
			hdr = *line.Header
		case line.Snap != nil:
			snap = line.Snap
		}
	}
	if err := sc.Err(); err != nil {
		return hdr, nil, fmt.Errorf("serve: reading session journal: %w", err)
	}
	if lineNo == 0 {
		return hdr, nil, fmt.Errorf("serve: session journal is empty")
	}
	return hdr, snap, nil
}

// append journals one snapshot and flushes it, so a kill after append
// returns loses nothing the client was told is committed. Once the file
// outgrows compactAt, it is compacted to header + this snapshot.
func (j *sessionJournal) append(snap *sessionSnap) error {
	if j.compactAt > 0 && j.size > j.compactAt {
		return j.compact(snap)
	}
	return j.writeLine(journalLine{Snap: snap})
}

// writeLine appends one JSONL line and flushes.
func (j *sessionJournal) writeLine(line journalLine) error {
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	n, err := j.w.Write(append(data, '\n'))
	j.size += int64(n)
	if err != nil {
		return err
	}
	return j.w.Flush()
}

// compact rewrites the journal as header + snap via temp-file-and-rename,
// so the switch is atomic: a kill at any point leaves either the old
// journal (complete) or the new one (complete), never a half-file.
func (j *sessionJournal) compact(snap *sessionSnap) error {
	tmp := j.path + ".tmp"
	err := writeSynced(tmp, journalLine{Header: &j.hdr}, journalLine{Snap: snap})
	if err == nil {
		err = os.Rename(tmp, j.path)
	}
	if err != nil {
		os.Remove(tmp)
		return err
	}
	old := j.f
	nf, err := os.OpenFile(j.path, os.O_RDWR, 0)
	if err != nil {
		return err
	}
	size, err := nf.Seek(0, io.SeekEnd)
	if err != nil {
		nf.Close()
		return err
	}
	old.Close()
	j.f, j.w, j.size = nf, bufio.NewWriter(nf), size
	return nil
}

// writeSynced writes lines as a fresh JSONL file at path and syncs it.
func writeSynced(path string, lines ...journalLine) error {
	var buf []byte
	for _, line := range lines {
		data, err := json.Marshal(line)
		if err != nil {
			return err
		}
		buf = append(append(buf, data...), '\n')
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// close releases the file handle; the journal stays on disk.
func (j *sessionJournal) close() error {
	if j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}

// remove closes and deletes the journal (session deletion).
func (j *sessionJournal) remove() error {
	err := j.close()
	if rerr := os.Remove(j.path); err == nil {
		err = rerr
	}
	return err
}

// quarantine renames a damaged journal aside so the session id can be
// reused while the evidence survives for inspection.
func quarantine(path string) {
	os.Rename(path, path+".damaged")
}
