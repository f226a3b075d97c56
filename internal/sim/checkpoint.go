package sim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"

	"bimode/internal/journal"
	"bimode/internal/trace"
)

// Journal is the suite-level checkpoint: an append-only record file
// (internal/journal) holding every completed (fan-out, cell) Result and,
// optionally, mid-cell predictor snapshots for cells still in flight. A
// scheduler carrying a Journal (see WithJournal) writes cells as they
// complete and, on a resumed run, serves cached cells instead of
// re-simulating them — so a suite killed partway re-runs only the work it
// lost, and the resumed output is Result-for-Result identical to an
// uninterrupted run (TestKillResumeEquivalence pins this for every zoo
// spec over the whole suite).
//
// Cells are keyed by (seq, idx): idx is the job's position in its RunAll
// call and seq numbers the RunAll (and materialization) fan-outs a
// scheduler issues, in order. That key is only meaningful because the
// CLIs issue their fan-outs from a single goroutine in a deterministic
// order fixed by the flags; the journal's header key (built from those
// flags) guards against resuming under a different plan. Cached cells are
// additionally validated against the live job's workload name, and
// mid-cell snapshots against the predictor name too — a mismatched entry
// is ignored and the cell re-run, never trusted.
//
// Each record is in the file when its append returns, so a killed
// process loses at most the record in flight; ResumeJournal cuts that
// torn tail off before appending.
type Journal struct {
	// PartEvery, when positive, is the record interval at which the
	// scheduler writes mid-cell snapshots for predictors implementing
	// predictor.Snapshotter. Zero journals completed cells only.
	PartEvery int

	// OnCell, when non-nil, is called after each newly completed cell is
	// journaled (not for cells served from cache). Callers use it for
	// progress output; tests use it to cancel a run at a chosen cell. It
	// may be called concurrently from worker goroutines.
	OnCell func(seq, idx int, res Result)

	mu    sync.Mutex
	w     *journal.Writer
	buf   []byte // the record being encoded, reused under mu
	seq   int
	cells map[cellKey]cellRecord
	parts map[cellKey]partRecord
}

type cellKey struct{ Seq, Idx int }

// cellRecord is one completed Result. Only successful cells are
// journaled: a failed cell must re-run on resume.
type cellRecord struct {
	Seq, Idx            int
	Predictor, Workload string
	CostBytes           float64
	Branches            int
	Mispredicts         int
}

// partRecord is a mid-cell snapshot: the predictor's serialized state
// after Cursor records, plus the mispredictions counted so far.
type partRecord struct {
	Seq, Idx            int
	Predictor, Workload string
	Cursor              int
	Mispredicts         int
	Snap                []byte
}

// The checkpoint's records. The first is the header: tagHeader, the
// version as a uvarint and the plan key. Each later one is a cell
// (tagCell: seq, idx, predictor, workload, the cost's float64 bits,
// branches, mispredicts) or a part (tagPart: seq, idx, predictor,
// workload, cursor, mispredicts, the Snapshotter bytes as a blob), in the
// internal/journal codec.
const (
	tagHeader = 'H'
	tagCell   = 'C'
	tagPart   = 'P'
)

// journalVersion guards the record schema. Version 2 is the binary
// framing; a version-1 checkpoint (JSON lines) is refused, never
// converted — rerun without -resume.
const journalVersion = 2

// CreateJournal starts a fresh checkpoint file at path, truncating any
// existing one. key identifies the run plan (the CLIs build it from the
// flags that determine the job grid); ResumeJournal refuses a different
// key rather than serving cells from a different plan.
func CreateJournal(path, key string) (*Journal, error) {
	hdr := binary.AppendUvarint([]byte{tagHeader}, journalVersion)
	w, err := journal.Create(path, journal.AppendString(hdr, key))
	if err != nil {
		return nil, err
	}
	return &Journal{w: w, cells: map[cellKey]cellRecord{}, parts: map[cellKey]partRecord{}}, nil
}

// ResumeJournal loads an existing checkpoint file and reopens it for
// appending, so the resumed run both serves the cached cells and keeps
// journaling new ones. A torn trailing record (a killed writer) is
// dropped; a key mismatch, an older version or a damaged interior is an
// error. Later records win, so a cell completed after a resume shadows
// stale parts.
func ResumeJournal(path, key string) (*Journal, error) {
	j := &Journal{cells: map[cellKey]cellRecord{}, parts: map[cellKey]partRecord{}}
	header := true
	w, err := journal.Open(path, func(_ int64, payload []byte) error {
		d := journal.NewDecoder(payload)
		tag := d.Byte()
		if header != (tag == tagHeader) {
			return fmt.Errorf("record tag %q out of place", tag)
		}
		switch tag {
		case tagHeader:
			header = false
			if v := d.Uvarint(math.MaxInt); d.Err() == nil && v != journalVersion {
				return &journal.VersionError{Got: int(v), Want: journalVersion}
			}
			if got := d.String(); d.Err() == nil && got != key {
				return fmt.Errorf("checkpoint was written for a different run (key %q, want %q)", got, key)
			}
		case tagCell:
			c := cellRecord{Seq: d.Int(), Idx: d.Int(), Predictor: d.String(), Workload: d.String(),
				CostBytes: math.Float64frombits(d.Uint64()), Branches: d.Int(), Mispredicts: d.Int()}
			k := cellKey{c.Seq, c.Idx}
			j.cells[k] = c
			delete(j.parts, k) // the completed cell supersedes its parts
		case tagPart:
			p := partRecord{Seq: d.Int(), Idx: d.Int(), Predictor: d.String(), Workload: d.String(),
				Cursor: d.Int(), Mispredicts: d.Int()}
			p.Snap = bytes.Clone(d.Blob())
			j.parts[cellKey{p.Seq, p.Idx}] = p
		default:
			return fmt.Errorf("unknown record tag %q", tag)
		}
		return d.Finish()
	})
	if errors.Is(err, journal.ErrLegacy) {
		err = &journal.VersionError{Want: journalVersion} // a version-1 checkpoint
	}
	var ve *journal.VersionError
	if errors.As(err, &ve) {
		return nil, fmt.Errorf("sim: resuming checkpoint %s: %w; rerun without -resume", path, err)
	}
	if err != nil {
		return nil, fmt.Errorf("sim: resuming checkpoint %s: %w", path, err)
	}
	j.w = w
	return j, nil
}

// Close closes the underlying file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.w.Close()
}

// Cells returns the number of completed cells currently cached; the CLIs
// report it when announcing a resume.
func (j *Journal) Cells() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.cells)
}

// beginRun allocates the sequence number for one scheduler fan-out.
func (j *Journal) beginRun() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	seq := j.seq
	j.seq++
	return seq
}

// cached returns the journaled Result for (seq, idx) if one exists and
// matches the live job's workload; a mismatch (the plan changed despite
// the key) falls through to a re-run.
func (j *Journal) cached(seq, idx int, src trace.Source) (Result, bool) {
	j.mu.Lock()
	c, ok := j.cells[cellKey{seq, idx}]
	j.mu.Unlock()
	if !ok || src == nil || c.Workload != src.Name() {
		return Result{}, false
	}
	return Result{
		Predictor:   c.Predictor,
		Workload:    c.Workload,
		CostBytes:   c.CostBytes,
		Branches:    c.Branches,
		Mispredicts: c.Mispredicts,
	}, true
}

// part returns the latest mid-cell snapshot for (seq, idx), if any.
func (j *Journal) part(seq, idx int) (partRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	p, ok := j.parts[cellKey{seq, idx}]
	return p, ok
}

// recordCell journals one completed Result and fires OnCell.
//
//bimode:deterministic
func (j *Journal) recordCell(seq, idx int, res Result) {
	rec := cellRecord{
		Seq:         seq,
		Idx:         idx,
		Predictor:   res.Predictor,
		Workload:    res.Workload,
		CostBytes:   res.CostBytes,
		Branches:    res.Branches,
		Mispredicts: res.Mispredicts,
	}
	j.mu.Lock()
	j.cells[cellKey{seq, idx}] = rec
	delete(j.parts, cellKey{seq, idx})
	b := appendKey(append(j.buf[:0], tagCell), seq, idx, rec.Predictor, rec.Workload)
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(rec.CostBytes))
	b = binary.AppendUvarint(b, uint64(rec.Branches))
	j.append(binary.AppendUvarint(b, uint64(rec.Mispredicts)))
	j.mu.Unlock()
	if j.OnCell != nil {
		j.OnCell(seq, idx, res)
	}
}

// recordPart journals a mid-cell snapshot.
//
//bimode:deterministic
func (j *Journal) recordPart(rec partRecord) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.parts[cellKey{rec.Seq, rec.Idx}] = rec
	b := appendKey(append(j.buf[:0], tagPart), rec.Seq, rec.Idx, rec.Predictor, rec.Workload)
	b = binary.AppendUvarint(b, uint64(rec.Cursor))
	b = binary.AppendUvarint(b, uint64(rec.Mispredicts))
	j.append(journal.AppendBlob(b, func(dst []byte) []byte { return append(dst, rec.Snap...) }))
}

// appendKey encodes the fields cell and part records open with.
func appendKey(dst []byte, seq, idx int, pred, workload string) []byte {
	dst = binary.AppendUvarint(dst, uint64(seq))
	dst = binary.AppendUvarint(dst, uint64(idx))
	return journal.AppendString(journal.AppendString(dst, pred), workload)
}

// append writes one encoded record, keeping the buffer for the next.
// Write errors are dropped: checkpointing is best-effort and never fails
// a simulation, and after one the writer appends nothing more.
//
//bimode:deterministic
func (j *Journal) append(rec []byte) {
	j.buf = rec
	_ = j.w.Append(rec)
}
