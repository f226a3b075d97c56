package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"

	"bimode/internal/journal"
	"bimode/internal/sim"
)

// The per-session journal: an append-only record file (internal/journal,
// the framing sim.Journal shares), one per session, holding the
// session's immutable header followed by one full state snapshot per
// committed ingest request. Every record is in the file when its append
// returns, a torn trailing record is dropped as the residue of a killed
// writer, and damage anywhere else is refused rather than guessed at.
// Where sim.Journal checkpoints a batch run's completed cells, this
// journal checkpoints a live session: the last good snapshot record IS
// the session's durable state, and a server (re)start or an LRU eviction
// recovers a session by replaying nothing — it just reloads that
// snapshot.
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

// journalVersion guards the record schema. Version 2 replaced the
// hand-kept per-spec counters of version 1 with sim.Observer snapshots;
// version 3 replaced version 2's JSON lines (base64 snapshots inside a
// JSON envelope) with binary records. A journal of an older version is
// refused (and quarantined), never converted.
const journalVersion = 3

// The records, in the internal/journal codec. The header (tagHeader):
// the version as a uvarint, id, name, specs, footnotes. A snapshot
// (tagSnap): cursor; the site table as a count and one uvarint PC per
// dense static id; the runtime footnotes; and per spec its string, then
// specLive and the sim.Observer snapshot bytes as a blob, or specFrozen
// and the frozen report as a JSON blob.
const (
	tagHeader  = 'H'
	tagSnap    = 'S'
	specLive   = 'O'
	specFrozen = 'F'
)

// sessionHeader is the journal's first record: the session's identity
// and admitted plan, immutable for the session's life.
type sessionHeader struct {
	ID        string
	Name      string
	Specs     []string
	Footnotes []string
}

// sessionSnap is one committed state snapshot, decoded: everything
// needed to rebuild the session exactly — the site table (dense static
// id -> PC, so the slice index is the id), the cursor, runtime footnotes
// accrued since creation, and per-spec state.
type sessionSnap struct {
	Cursor    int
	PCs       []uint64
	Footnotes []string
	Specs     []specSnap
}

// specSnap is one predictor's slice of a snapshot: a live spec's
// sim.Observer snapshot (predictor state and every metric, in the
// observer's binary codec), or a failed spec's report, frozen when a
// runtime panic disabled it (see session.feed).
type specSnap struct {
	Spec     string
	Observer []byte
	Frozen   *sim.Report
}

// sessionJournal is a session's journal: its path and header always, and
// the open writer while the session is resident.
type sessionJournal struct {
	path      string
	hdr       sessionHeader
	w         *journal.Writer // nil while spilled
	compactAt int64
}

// journalPath maps a session id to its file.
func journalPath(dir, id string) string {
	return filepath.Join(dir, id+".session")
}

// createSessionJournal starts a fresh journal holding the header.
func createSessionJournal(path string, hdr sessionHeader, compactAt int64) (*sessionJournal, error) {
	w, err := journal.Create(path, appendHeader(nil, hdr))
	if err != nil {
		return nil, err
	}
	return &sessionJournal{path: path, hdr: hdr, w: w, compactAt: compactAt}, nil
}

// readSessionHeader checks the journal at path and returns its header;
// the startup scan uses it to register spilled sessions without loading
// their state.
func readSessionHeader(path string) (sessionHeader, error) {
	var l journalLoader
	err := journal.Load(path, l.record)
	return l.hdr, l.err(err)
}

// openSessionJournal loads a journal — header plus the last good
// snapshot, nil if none was ever committed — and reopens it for
// appending. A torn final record is dropped; any other damage is an
// error and the session is unrecoverable by contract (the caller
// quarantines the file rather than serving guessed state).
func openSessionJournal(path string, compactAt int64) (*sessionJournal, *sessionSnap, error) {
	var l journalLoader
	w, err := journal.Open(path, l.record)
	if err != nil {
		return nil, nil, l.err(err)
	}
	var snap *sessionSnap
	if l.snap != nil {
		if snap, err = decodeSnap(l.snap); err != nil {
			w.Close()
			return nil, nil, l.err(&journal.DamageError{Offset: l.snapAt, Index: l.n - 1, Err: err})
		}
	}
	return &sessionJournal{path: path, hdr: l.hdr, w: w, compactAt: compactAt}, snap, nil
}

// journalLoader collects a journal's header and the payload of its last
// snapshot; only that one is ever decoded, the checksums vouch for the
// rest.
type journalLoader struct {
	n      int // records seen
	hdr    sessionHeader
	snap   []byte
	snapAt int64 // offset of the last snapshot's record
}

func (l *journalLoader) record(at int64, payload []byte) error {
	l.n++
	if l.n == 1 {
		var err error
		l.hdr, err = decodeHeader(payload)
		return err
	}
	if len(payload) == 0 || payload[0] != tagSnap {
		return errors.New("record is not a snapshot")
	}
	l.snap, l.snapAt = payload, at
	return nil
}

// err maps a load error: a JSON-lines journal of an earlier build (v1 or
// v2) is a version error, and everything is tagged with the operation.
func (l *journalLoader) err(err error) error {
	if errors.Is(err, journal.ErrLegacy) {
		err = &journal.VersionError{Want: journalVersion}
	}
	if err != nil {
		return fmt.Errorf("serve: loading session journal: %w", err)
	}
	return nil
}

func appendHeader(dst []byte, hdr sessionHeader) []byte {
	dst = binary.AppendUvarint(append(dst, tagHeader), journalVersion)
	dst = journal.AppendString(journal.AppendString(dst, hdr.ID), hdr.Name)
	return journal.AppendStrings(journal.AppendStrings(dst, hdr.Specs), hdr.Footnotes)
}

func decodeHeader(payload []byte) (sessionHeader, error) {
	d := journal.NewDecoder(payload)
	if d.Byte() != tagHeader {
		return sessionHeader{}, errors.New("session journal does not start with a header")
	}
	if v := d.Uvarint(math.MaxInt); d.Err() == nil && v != journalVersion {
		return sessionHeader{}, &journal.VersionError{Got: int(v), Want: journalVersion}
	}
	hdr := sessionHeader{ID: d.String(), Name: d.String(), Specs: d.Strings(), Footnotes: d.Strings()}
	if err := d.Finish(); err != nil {
		return sessionHeader{}, fmt.Errorf("session journal header: %w", err)
	}
	return hdr, nil
}

// appendSnap appends the session's complete committed state to dst as
// one snapshot record. Live specs' observers encode in place.
func (sess *session) appendSnap(dst []byte) ([]byte, error) {
	dst = binary.AppendUvarint(append(dst, tagSnap), uint64(sess.cursor))
	dst = binary.AppendUvarint(dst, uint64(len(sess.pcs)))
	for _, pc := range sess.pcs {
		dst = binary.AppendUvarint(dst, pc)
	}
	dst = journal.AppendStrings(dst, sess.footnotes)
	dst = binary.AppendUvarint(dst, uint64(len(sess.specs)))
	for _, sp := range sess.specs {
		dst = journal.AppendString(dst, sp.spec)
		if sp.obs != nil {
			dst = journal.AppendBlob(append(dst, specLive), sp.obs.Snapshot)
			continue
		}
		frozen, err := json.Marshal(sp.frozen)
		if err != nil {
			return dst, err
		}
		dst = journal.AppendBlob(append(dst, specFrozen), func(b []byte) []byte { return append(b, frozen...) })
	}
	return dst, nil
}

func decodeSnap(payload []byte) (*sessionSnap, error) {
	d := journal.NewDecoder(payload)
	d.Byte() // tagSnap, checked by the loader
	snap := &sessionSnap{Cursor: d.Int(), PCs: make([]uint64, d.Count())}
	for i := range snap.PCs {
		snap.PCs[i] = d.Uvarint(math.MaxUint64)
	}
	snap.Footnotes = d.Strings()
	for n := d.Count(); n > 0 && d.Err() == nil; n-- {
		ss := specSnap{Spec: d.String()}
		switch kind, blob := d.Byte(), d.Blob(); {
		case d.Err() != nil:
		case kind == specLive:
			ss.Observer = blob
		case kind == specFrozen:
			ss.Frozen = new(sim.Report)
			if err := json.Unmarshal(blob, ss.Frozen); err != nil {
				return nil, fmt.Errorf("spec %q frozen report: %w", ss.Spec, err)
			}
		default:
			return nil, fmt.Errorf("spec %q: unknown state kind %q", ss.Spec, kind)
		}
		snap.Specs = append(snap.Specs, ss)
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return snap, nil
}

// append journals one encoded snapshot; when append returns, the record
// is in the file, so a kill loses nothing the client was told is
// committed. Once the file outgrows compactAt, it is compacted to header
// + this snapshot.
func (j *sessionJournal) append(snap []byte) error {
	if j.compactAt > 0 && j.w.Size() > j.compactAt {
		return j.w.Compact(appendHeader(nil, j.hdr), snap)
	}
	return j.w.Append(snap)
}

// close releases the file handle; the journal stays on disk.
func (j *sessionJournal) close() error {
	if j.w == nil {
		return nil
	}
	err := j.w.Close()
	j.w = nil
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
