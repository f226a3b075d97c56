package sim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"sync"

	"bimode/internal/journal"
	"bimode/internal/trace"
)

// Journal is the suite-level checkpoint: an append-only record file
// (internal/journal) holding a header and every completed RunAll cell,
// nothing else. A scheduler carrying a Journal (see WithJournal) writes
// cells as they complete and serves any cell the journal already holds
// instead of re-simulating it, so a suite killed partway re-runs only
// the cells that were in flight, each from its first record, and the
// resumed output is Result-for-Result identical to an uninterrupted run
// (TestKillResumeEquivalence pins this for every zoo spec over the whole
// suite).
//
// A cell is keyed by what it is, never by where it sits: by the
// predictor's Name and by the trace's name, record count and checksum
// (see cellKey). A resume under a different plan therefore serves the
// cells both plans share and runs the rest, and a run that repeats a
// cell serves the repeat.
//
// Each record is in the file when its append returns, so a killed
// process loses at most the record in flight; ResumeJournal cuts that
// torn tail off before appending.
type Journal struct {
	// OnCell, when non-nil, is called after each newly completed cell is
	// journaled (not for cells served from the journal). Callers use it
	// for progress output; tests use it to cancel a run at a chosen cell.
	// It may be called concurrently from worker goroutines.
	OnCell func(res Result)

	mu    sync.Mutex
	w     *journal.Writer
	buf   []byte          // the record being encoded, reused under mu
	cells map[cellKey]int // completed cells: their mispredicts
}

// cellKey is a RunAll cell's identity. Predictor is the predictor's Name,
// which spells out its whole configuration (TestCellIdentityInjective
// pins that); traceKey names the records it runs. What the key leaves to
// the build, the simulator's behaviour, journalVersion covers. A
// completed cell simulated every record, so its Branches is Records.
type cellKey struct {
	Predictor string
	traceKey
}

// traceKey identifies a materialized trace: its workload name, its record
// count and a checksum of its records.
type traceKey struct {
	Workload string
	Records  int
	Sum      uint64
}

// The checkpoint's records. The first is the header: tagHeader and the
// version as a uvarint. Each later one is a cell: tagCell, the key and
// the mispredicts, in the internal/journal codec. A key is the predictor
// and workload strings, the record count and the checksum as eight
// little-endian bytes.
const (
	tagHeader = 'H'
	tagCell   = 'C'
)

// journalVersion guards the record schema and what a cell means. Version
// 5 holds a header and cells only; checkpoints of earlier versions (1:
// JSON lines, 2: cells keyed by fan-out position, 3: cells keyed by
// identity plus mid-cell snapshot parts, 4: as 5, but with gselect
// named gselect(Na,Nh) rather than GAs(Nh,Ns)) are refused, never
// converted — rerun without -resume. The version is also bumped
// whenever a predictor's name or behaviour or the engine's behaviour
// changes, so a rebuilt binary never serves a cell the old one
// computed; TestJournalVersionPinsBehaviour fails until it is.
const journalVersion = 5

// CreateJournal starts a fresh checkpoint file at path, truncating any
// existing one.
func CreateJournal(path string) (*Journal, error) {
	w, err := journal.Create(path, binary.AppendUvarint([]byte{tagHeader}, journalVersion))
	if err != nil {
		return nil, err
	}
	return &Journal{w: w, cells: map[cellKey]int{}}, nil
}

// ResumeJournal loads an existing checkpoint file and reopens it for
// appending, so the resumed run both serves the cached cells and keeps
// journaling new ones. A torn trailing record (a killed writer) is
// dropped; another version or a damaged interior is an error.
func ResumeJournal(path string) (*Journal, error) {
	j := &Journal{cells: map[cellKey]int{}}
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
		case tagCell:
			j.cells[readKey(d)] = d.Int()
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

// cell returns the mispredicts of the completed cell k, if journaled.
func (j *Journal) cell(k cellKey) (int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	miss, ok := j.cells[k]
	return miss, ok
}

// recordCell journals one completed cell and fires OnCell.
//
//bimode:deterministic
func (j *Journal) recordCell(k cellKey, res Result) {
	j.mu.Lock()
	j.cells[k] = res.Mispredicts
	j.append(binary.AppendUvarint(appendKey(append(j.buf[:0], tagCell), k), uint64(res.Mispredicts)))
	j.mu.Unlock()
	if j.OnCell != nil {
		j.OnCell(res)
	}
}

// appendKey encodes the key a cell record opens with.
func appendKey(dst []byte, k cellKey) []byte {
	dst = journal.AppendString(journal.AppendString(dst, k.Predictor), k.Workload)
	dst = binary.AppendUvarint(dst, uint64(k.Records))
	return binary.LittleEndian.AppendUint64(dst, k.Sum)
}

// readKey decodes what appendKey wrote.
func readKey(d *journal.Decoder) cellKey {
	return cellKey{Predictor: d.String(), traceKey: traceKey{Workload: d.String(), Records: d.Int(), Sum: d.Uint64()}}
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

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// keyTrace computes m's traceKey. The checksum is CRC-32C and CRC-32
// (IEEE) side by side, both hardware-accelerated, over each record's PC
// and then its static id and direction as one word.
func keyTrace(m *trace.Memory) traceKey {
	var c, ieee uint32
	buf := make([]byte, 0, 16<<10)
	for i, r := range m.Records() {
		word := uint64(r.Static) << 1
		if r.Taken {
			word |= 1
		}
		buf = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(buf, r.PC), word)
		if len(buf) == cap(buf) || i == m.Len()-1 {
			c = crc32.Update(c, castagnoli, buf)
			ieee = crc32.Update(ieee, crc32.IEEETable, buf)
			buf = buf[:0]
		}
	}
	return traceKey{Workload: m.Name(), Records: m.Len(), Sum: uint64(c)<<32 | uint64(ieee)}
}
