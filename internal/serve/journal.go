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
// session's immutable header followed by one record per committed ingest
// request. A commit logs either a full state snapshot or the request's
// body verbatim; every record is in the file when its append returns, a
// torn trailing record is dropped as the residue of a killed writer, and
// damage anywhere else is refused rather than guessed at. Where
// sim.Journal checkpoints a batch run's completed cells, this journal
// checkpoints a live session: the session's durable state is the last
// snapshot record plus the body records after it, and a server (re)start,
// an LRU eviction or a rollback recovers the session by reloading that
// snapshot and replaying those bodies through the ingest path
// (session.applyBody) without the token bucket or the deadline.
//
// The commit rule (sessionJournal.wantsSnapshot): a body record is written
// unless the body bytes logged since the last snapshot, this body
// included, would exceed that snapshot's size, there is no snapshot yet,
// a spec froze during the request (an injected or real panic need not
// recur on replay), or compaction is due; in each of those cases the
// commit is a full snapshot. So replay after any reload costs at most
// one snapshot's worth of bodies, and a session whose bodies outweigh
// its state snapshots on every commit, exactly as before.
//
// One writer per journal: a session's requests are serialized under the
// session lock, so exactly one goroutine ever appends to a given file
// (the invariant sim.Journal documents in DESIGN.md §11; the concurrent-
// sessions test there pins that many journals in parallel are fine, one
// writer each).
//
// Growth is bounded by compaction: once the file exceeds the configured
// threshold, the next commit rewrites it as header + a fresh snapshot into
// a temp file and atomically renames it into place, so a long-lived
// session's journal stays proportional to its state, not its request
// count.

// journalVersion guards the record schema. Version 2 replaced the
// hand-kept per-spec counters of version 1 with sim.Observer snapshots;
// version 3 replaced version 2's JSON lines (base64 snapshots inside a
// JSON envelope) with binary records; version 4 added body records. A
// version-3 journal is a version-4 journal with no body records and loads
// as one; anything older is refused (and quarantined), never converted.
const (
	journalVersion = 4
	journalOldest  = 3 // the oldest header version this build loads
)

// The records, in the internal/journal codec. The header (tagHeader):
// the version as a uvarint, id, name, specs, footnotes. A snapshot
// (tagSnap): cursor; the site table as a count and one uvarint PC per
// dense static id; the runtime footnotes; and per spec its string, then
// specLive and the sim.Observer snapshot bytes as a blob, or specFrozen
// and the frozen report as a JSON blob. A body (tagBody): the cursor
// before the request and the records it applied, as uvarints, then the
// request body verbatim to the end of the record.
const (
	tagHeader  = 'H'
	tagSnap    = 'S'
	tagBody    = 'B'
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
// accrued since creation, and per-spec state — plus where its record
// sits in the file, for a damage report.
type sessionSnap struct {
	Cursor    int
	PCs       []uint64
	Footnotes []string
	Specs     []specSnap
	at        int64
	index     int
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

// bodyRecord is one logged request body: the cursor the session stood at
// before it, the records it applied, and the body bytes (aliasing the
// loaded file), plus where it sits in the file for a damage report.
type bodyRecord struct {
	at      int64
	index   int
	cursor  int
	records int
	body    []byte
}

// sessionJournal is a session's journal: its path and header always, and
// the open writer while the session is resident. snapSize is the payload
// size of the file's last snapshot record (0 while there is none) and
// logged the body bytes logged after it: the commit rule's two inputs.
type sessionJournal struct {
	path      string
	hdr       sessionHeader
	w         *journal.Writer // nil while spilled
	compactAt int64
	snapSize  int
	logged    int
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

// openSessionJournal loads a journal — header, the last good snapshot
// (nil if none was ever committed) and the body records after it, in
// order — and reopens it for appending. A torn final record is dropped;
// any other damage is an error and the session is unrecoverable by
// contract (the caller quarantines the file rather than serving guessed
// state). The bodies are checked only for framing here; replaying them
// (Server.restore) is what proves them.
func openSessionJournal(path string, compactAt int64) (*sessionJournal, *sessionSnap, []bodyRecord, error) {
	var l journalLoader
	w, err := journal.Open(path, l.record)
	if err != nil {
		return nil, nil, nil, l.err(err)
	}
	var snap *sessionSnap
	if l.snap != nil {
		if snap, err = decodeSnap(l.snap); err != nil {
			w.Close()
			return nil, nil, nil, l.err(&journal.DamageError{Offset: l.snapAt, Index: l.snapIndex, Err: err})
		}
		snap.at, snap.index = l.snapAt, l.snapIndex
	}
	j := &sessionJournal{path: path, hdr: l.hdr, w: w, compactAt: compactAt, snapSize: len(l.snap)}
	for _, b := range l.bodies {
		j.logged += len(b.body)
	}
	return j, snap, l.bodies, nil
}

// journalLoader collects a journal's header, the payload of its last
// snapshot and the body records after that snapshot; only that snapshot
// is ever decoded, the checksums vouch for the rest.
type journalLoader struct {
	n         int // records seen
	hdr       sessionHeader
	snap      []byte
	snapAt    int64 // offset of the last snapshot's record
	snapIndex int
	bodies    []bodyRecord
}

func (l *journalLoader) record(at int64, payload []byte) error {
	l.n++
	if l.n == 1 {
		var err error
		l.hdr, err = decodeHeader(payload)
		return err
	}
	switch {
	case len(payload) > 0 && payload[0] == tagSnap:
		l.snap, l.snapAt, l.snapIndex = payload, at, l.n-1
		l.bodies = l.bodies[:0]
	case len(payload) > 0 && payload[0] == tagBody:
		d := journal.NewDecoder(payload)
		d.Byte()
		b := bodyRecord{at: at, index: l.n - 1, cursor: d.Int(), records: d.Int()}
		b.body = d.Rest()
		if err := d.Err(); err != nil {
			return fmt.Errorf("body record: %w", err)
		}
		l.bodies = append(l.bodies, b)
	default:
		return errors.New("record is neither a snapshot nor a body")
	}
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
	if v := d.Uvarint(math.MaxInt); d.Err() == nil && (v < journalOldest || v > journalVersion) {
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
	dst = binary.AppendUvarint(dst, uint64(sess.sites.Len()))
	for _, pc := range sess.sites.Keys() {
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

// appendBodyHead appends a body record's head — the tag, the cursor
// before the request and the records it applied — to dst.
func appendBodyHead(dst []byte, cursor, records int) []byte {
	dst = binary.AppendUvarint(append(dst, tagBody), uint64(cursor))
	return binary.AppendUvarint(dst, uint64(records))
}

// wantsSnapshot applies the commit rule to a request that sent body and
// froze a spec or not: true when the commit must be a full snapshot.
func (j *sessionJournal) wantsSnapshot(body []byte, froze bool) bool {
	return froze || j.snapSize == 0 || j.logged+len(body) > j.snapSize || j.compactDue()
}

// compactDue reports whether the file has outgrown compactAt.
func (j *sessionJournal) compactDue() bool {
	return j.compactAt > 0 && j.w.Size() > j.compactAt
}

// appendSnap journals one encoded snapshot, compacting the file to
// header + this snapshot once it has outgrown compactAt. When it returns
// the record is in the file, so a kill loses nothing the client was told
// is committed.
func (j *sessionJournal) appendSnap(snap []byte) error {
	var err error
	if j.compactDue() {
		err = j.w.Compact(appendHeader(nil, j.hdr), snap)
	} else {
		err = j.w.Append(snap)
	}
	if err == nil {
		j.snapSize, j.logged = len(snap), 0
	}
	return err
}

// appendBody journals a request body as one body record, written from
// the caller's buffer without a copy.
func (j *sessionJournal) appendBody(head, body []byte) error {
	err := j.w.AppendParts(head, body)
	if err == nil {
		j.logged += len(body)
	}
	return err
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

// damaged reports whether a restore failed because of the journal's
// bytes: a *journal.DamageError or a *journal.VersionError.
func damaged(err error) bool {
	var de *journal.DamageError
	var ve *journal.VersionError
	return errors.As(err, &de) || errors.As(err, &ve)
}
