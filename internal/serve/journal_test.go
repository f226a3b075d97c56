package serve

// Tests of the session journal's body records: restore as the last
// snapshot plus the bodies after it replayed, the commit rule, rollback
// through replay, version-3 journals, and what counts as damage.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bimode/internal/journal"
	"bimode/internal/predictor"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// journalRecords returns the payloads of the journal at path, in order.
func journalRecords(t *testing.T, path string) [][]byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs [][]byte
	if _, err := journal.Scan(data, func(_ int64, p []byte) error {
		recs = append(recs, p)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return recs
}

// journalTags is the journal's record tags in file order, e.g. "HSBBS".
func journalTags(t *testing.T, path string) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range journalRecords(t, path) {
		sb.WriteByte(p[0])
	}
	return sb.String()
}

// writeRecords replaces the journal at path with payloads, framed.
func writeRecords(t *testing.T, path string, payloads [][]byte) {
	t.Helper()
	var data []byte
	for _, p := range payloads {
		data = journal.AppendRecord(data, p)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// varzCounter reads one of the server's /varz counters.
func varzCounter(s *Server, name string) int64 { return s.varz().Server[name] }

// sameAsControl fails unless two sessions' raw reports are equal apart
// from their ids.
func sameAsControl(t *testing.T, base, id, controlID string) {
	t.Helper()
	got, _ := rawReport(t, base, id)
	want, _ := rawReport(t, base, controlID)
	if g, w := strings.ReplaceAll(string(got), id, "SESSION"), strings.ReplaceAll(string(want), controlID, "SESSION"); g != w {
		t.Fatalf("session diverged from its uninterrupted control:\n got %s\nwant %s", g, w)
	}
}

// TestJournalBodyReplay: a session whose snapshot outweighs its bodies
// commits runs of body records, and a reload — after a kill, after a
// server restart, and with the final body record torn — replays them to
// reports byte-equal to an uninterrupted session's.
func TestJournalBodyReplay(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Dir: dir})
	specs := []string{"bimode:b=11", "gshare:i=12,h=12"}
	recs := testTrace(t, 3000).Records()
	id := createSession(t, base, specs...).ID
	control := createSession(t, base, specs...).ID
	ingestText(t, base, control, textBody(recs))

	for i := 0; i < 2000; i += 100 {
		ingestText(t, base, id, textBody(recs[i:i+100]))
	}
	path := journalPath(dir, id)
	tags := journalTags(t, path)
	if !strings.HasPrefix(tags, "HS") || !strings.HasSuffix(tags, "BB") {
		t.Fatalf("journal records %q: want a first snapshot, then runs of body records", tags)
	}
	if got, want := varzCounter(s, "body_commits"), int64(strings.Count(tags, "B")); got != want {
		t.Errorf("body_commits %d, journal holds %d body records", got, want)
	}
	before, _ := rawReport(t, base, id)
	s.Kill()
	after, _ := rawReport(t, base, id)
	if !bytes.Equal(before, after) {
		t.Fatalf("report changed across a kill:\nbefore %s\n after %s", before, after)
	}
	lastSnap := strings.LastIndexByte(tags, 'S')
	if got, want := varzCounter(s, "replayed_records"), int64(100*(len(tags)-1-lastSnap)); got != want {
		t.Errorf("replayed_records %d, want %d: the bodies after the last snapshot", got, want)
	}

	// A new process over the same directory replays the same bodies.
	s.Kill()
	s.Close()
	s, base = newTestServer(t, Config{Dir: dir})
	if restarted, _ := rawReport(t, base, id); !bytes.Equal(before, restarted) {
		t.Fatalf("report changed across a restart:\nbefore %s\n after %s", before, restarted)
	}

	// A body record torn by a killed writer is dropped: the session is
	// back at the commit before it.
	ingestText(t, base, id, textBody(recs[2000:2100]))
	if tags := journalTags(t, path); !strings.HasSuffix(tags, "B") {
		t.Fatalf("journal records %q: want a final body record", tags)
	}
	s.Kill()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-300], 0o644); err != nil {
		t.Fatal(err)
	}
	if torn, rep := rawReport(t, base, id); !bytes.Equal(before, torn) || rep.Cursor != 2000 {
		t.Fatalf("torn body record: cursor %d, report\n%s\nwant\n%s", rep.Cursor, torn, before)
	}

	// The client resends from the reported cursor and the session lands
	// exactly where the uninterrupted one did.
	ingestText(t, base, id, textBody(recs[2000:]))
	sameAsControl(t, base, id, control)
}

// TestJournalRollbackReplays: a 429 in the middle of a body rolls the
// session back through a reload that replays its body records, to a
// report byte-equal to the one before the request; the retry succeeds.
func TestJournalRollbackReplays(t *testing.T) {
	now := time.Unix(1000, 0)
	s, base := newTestServer(t, Config{
		IngestRate:  1000,
		IngestBurst: 13000,
		Now:         func() time.Time { return now },
	})
	recs := testTrace(t, 14000).Records()
	id := createSession(t, base, "bimode:b=11")
	for i := 0; i < 2000; i += 100 {
		ingestText(t, base, id.ID, textBody(recs[i:i+100]))
	}
	before, _ := rawReport(t, base, id.ID)
	rollbacks, replayed := varzCounter(s, "rollbacks"), varzCounter(s, "replayed_records")

	// 11000 tokens are left: the body's first two 4096-record chunks fit,
	// its third does not.
	url := base + "/v1/sessions/" + id.ID + "/branches"
	body := textBody(recs[2000:])
	if resp := doJSON(t, "POST", url, strings.NewReader(body), nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget body: status %d, want 429", resp.StatusCode)
	}
	if got := varzCounter(s, "rollbacks"); got != rollbacks+1 {
		t.Errorf("rollbacks %d -> %d, want one more", rollbacks, got)
	}
	after, _ := rawReport(t, base, id.ID)
	if !bytes.Equal(before, after) {
		t.Fatalf("a 429 mid-body changed the report:\nbefore %s\n after %s", before, after)
	}
	if varzCounter(s, "replayed_records") == replayed {
		t.Errorf("the rollback's reload replayed no body records")
	}

	// A refilled bucket takes the retry whole.
	now = now.Add(30 * time.Second)
	if res := ingestText(t, base, id.ID, body); res.Report.Cursor != len(recs) {
		t.Fatalf("retry: cursor %d, want %d", res.Report.Cursor, len(recs))
	}
	control := createSession(t, base, "bimode:b=11").ID
	now = now.Add(30 * time.Second)
	ingestText(t, base, control, textBody(recs[:12000]))
	now = now.Add(30 * time.Second)
	ingestText(t, base, control, textBody(recs[12000:]))
	sameAsControl(t, base, id.ID, control)
}

// TestJournalV3Loads: a version-3 journal, written by the build before
// body records existed (testdata/v3.session: bi-mode, gshare and a smith
// spec frozen at record 300, fed a text, a BMC1 and a BMT1 body),
// restores to the report that build served (testdata/v3.report.json),
// takes body records after its snapshots, and reloads them.
func TestJournalV3Loads(t *testing.T) {
	v3, err := os.ReadFile(filepath.Join("testdata", "v3.session"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "v3.report.json"))
	if err != nil {
		t.Fatal(err)
	}
	hdr, err := decodeHeader(journalRecords(t, filepath.Join("testdata", "v3.session"))[0])
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := journalPath(dir, hdr.ID)
	if err := os.WriteFile(path, v3, 0o644); err != nil {
		t.Fatal(err)
	}
	s, base := newTestServer(t, Config{Dir: dir})
	got, rep := rawReport(t, base, hdr.ID)
	if !bytes.Equal(got, want) {
		t.Fatalf("v3 journal restored to\n%s\nwant\n%s", got, want)
	}

	more := testTrace(t, 3000).Records()[2500:]
	for i := 0; i < len(more); i += 100 {
		ingestText(t, base, hdr.ID, textBody(more[i:i+100]))
	}
	if tags := journalTags(t, path); !strings.HasSuffix(tags, "B") {
		t.Fatalf("journal records %q: want body records after the v3 snapshots", tags)
	}
	before, after := func() ([]byte, []byte) {
		b, _ := rawReport(t, base, hdr.ID)
		s.Kill()
		a, _ := rawReport(t, base, hdr.ID)
		return b, a
	}()
	if !bytes.Equal(before, after) {
		t.Fatalf("v3 journal with body records changed across a kill:\nbefore %s\n after %s", before, after)
	}
	var final Report
	if doJSON(t, "GET", base+"/v1/sessions/"+hdr.ID, nil, &final); final.Cursor != rep.Cursor+len(more) {
		t.Fatalf("cursor %d, want %d", final.Cursor, rep.Cursor+len(more))
	}
}

// columnarBlockSpan returns the byte range of block b of a columnar
// body: from its record count to its CRC footer.
func columnarBlockSpan(t *testing.T, data []byte, b int) (start, crcOff int) {
	t.Helper()
	uv := func(off *int) int {
		v, n := binary.Uvarint(data[*off:])
		if n <= 0 {
			t.Fatalf("bad uvarint at %d", *off)
		}
		*off += n
		return int(v)
	}
	off := 4 // magic
	uv(&off) // static count
	uv(&off) // record count
	uv(&off) // block size
	off += uv(&off) + 4
	for i := 0; ; i++ {
		start = off
		count, pcLen, stLen := uv(&off), uv(&off), uv(&off)
		crcOff = off + pcLen + stLen + (count+7)/8
		if i == b {
			return start, crcOff
		}
		off = crcOff + 4
	}
}

// TestJournalLyingColumnarBlock: a BMC1 body whose second block passes
// its CRC but does not decode — the checksum-consistent but structurally
// lying case decodeColumnarBlock guards — is refused with a 400 after its
// first block has already applied, and the rollback leaves the report
// byte-equal to the one before the request.
func TestJournalLyingColumnarBlock(t *testing.T) {
	s, base := newTestServer(t, Config{})
	recs := testTrace(t, 4000).Records()
	id := createSession(t, base, "bimode:b=11", "gshare:i=12,h=12").ID
	ingestText(t, base, id, textBody(recs[:1000]))

	var buf bytes.Buffer
	if err := trace.WriteColumnarBlocks(&buf, trace.NewMemory("lying", 4096, recs[1000:]), 1024); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	start, crcOff := columnarBlockSpan(t, body, 1)
	pcOff := start
	for k := 0; k < 3; k++ { // past the count and the two stream lengths
		_, n := binary.Uvarint(body[pcOff:])
		pcOff += n
	}
	// The block's first PC delta is a whole PC, several varint bytes.
	// Ending it at its first byte leaves the PC stream one varint longer
	// than the block's count, and the CRC is re-stamped over the lie.
	if body[pcOff]&0x80 == 0 {
		t.Fatal("block 1's first PC delta is a one-byte varint")
	}
	body[pcOff] &^= 0x80
	binary.LittleEndian.PutUint32(body[crcOff:], crc32.ChecksumIEEE(body[start:crcOff]))

	c, err := trace.OpenColumnar(body)
	if err != nil {
		t.Fatalf("the re-stamped body must pass OpenColumnar: %v", err)
	}
	bs := c.BlockStream()
	if blk, err := bs.NextBlock(); err != nil || len(blk) != 1024 {
		t.Fatalf("block 0: %d records, %v", len(blk), err)
	}
	var de *trace.ColumnarDecodeError
	if _, err := bs.NextBlock(); !errors.As(err, &de) || de.Block != 1 {
		t.Fatalf("block 1 decodes with %v, want a *trace.ColumnarDecodeError in block 1", err)
	}

	before, _ := rawReport(t, base, id)
	rollbacks := varzCounter(s, "rollbacks")
	if resp := doJSON(t, "POST", base+"/v1/sessions/"+id+"/branches", bytes.NewReader(body), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("lying body: status %d, want 400", resp.StatusCode)
	}
	if got := varzCounter(s, "rollbacks"); got != rollbacks+1 {
		t.Errorf("rollbacks %d -> %d, want one more", rollbacks, got)
	}
	if after, _ := rawReport(t, base, id); !bytes.Equal(before, after) {
		t.Fatalf("a refused body changed the report:\nbefore %s\n after %s", before, after)
	}
}

// TestJournalBodyDamage: a body record that frames correctly but does
// not replay to what its commit acknowledged is damage — a located
// *journal.DamageError from the restore, and over HTTP a 410 with the
// journal quarantined — whether it starts off the session's cursor,
// claims the wrong record count, fails to decode, holds a body in the
// retired BMT1 format, or freezes a spec on replay.
func TestJournalBodyDamage(t *testing.T) {
	recs := testTrace(t, 600).Records()
	specs := []string{"bimode:b=11", "smith:a=12"}
	// smith panics after left updates (counted from its construction);
	// the writer's never does.
	build := func(left int) func(string) (predictor.Predictor, error) {
		return func(spec string) (predictor.Predictor, error) {
			p, err := zoo.New(spec)
			if err == nil && spec == "smith:a=12" {
				p = &panicAfterPredictor{Predictor: p, left: left}
			}
			return p, err
		}
	}
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Dir: dir, Build: build(len(recs))})
	id := createSession(t, base, specs...).ID
	for i := 0; i < len(recs); i += 100 {
		ingestText(t, base, id, textBody(recs[i:i+100]))
	}
	path := journalPath(dir, id)
	if tags := journalTags(t, path); tags != "HSBBBBB" {
		t.Fatalf("journal records %q, want HSBBBBB", tags)
	}
	s.Kill()
	good := journalRecords(t, path)
	for i := range good {
		good[i] = bytes.Clone(good[i])
	}
	// reframe builds a body record payload.
	reframe := func(cursor, records int, body []byte) []byte {
		return append(appendBodyHead(nil, cursor, records), body...)
	}
	bodyOf := func(i int) []byte { return good[i][len(appendBodyHead(nil, 100*(i-1), 100)):] }

	cases := []struct {
		name    string
		records [][]byte
		left    int // smith's updates before it panics in the restore
		index   int
		msg     string // a piece of the damage's text, when it matters
	}{
		{"cursor gap", append(append([][]byte{}, good[:3]...), good[4:]...), len(recs), 3, ""},
		{"record count", append(append(append([][]byte{}, good[:4]...), reframe(300, 101, bodyOf(4))), good[5:]...), len(recs), 4, ""},
		{"undecodable", append(append(append([][]byte{}, good[:3]...), reframe(200, 100, []byte("0x10 maybe\n"))), good[4:]...), len(recs), 3, ""},
		{"bmt1 body", append(append(append([][]byte{}, good[:3]...), reframe(200, 2, []byte(bmt1Body))), good[4:]...), len(recs), 3, "send BMC1"},
		{"freezes a spec", good, 150, 3, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := journalPath(dir, id)
			writeRecords(t, path, tc.records)
			s, err := New(Config{Dir: dir, Build: build(tc.left)})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var de *journal.DamageError
			err = s.restore(s.sessions[id])
			if !errors.As(err, &de) || de.Index != tc.index || !strings.Contains(err.Error(), tc.msg) {
				t.Fatalf("restore: %v, want a *journal.DamageError at record %d saying %q", err, tc.index, tc.msg)
			}
			rr := httptest.NewRecorder()
			s.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/sessions/"+id, nil))
			if rr.Code != http.StatusGone {
				t.Fatalf("status %d, want 410", rr.Code)
			}
			if _, err := os.Stat(path + ".damaged"); err != nil {
				t.Fatalf("journal not quarantined: %v", err)
			}
		})
	}
}

// TestJournalRestoreBuildFailureKeepsJournal: a spilled session whose
// predictors will not build at restore time answers 503 with a
// Retry-After and stays registered with its journal
// untouched; once the builder heals, the session restores to the report
// it had before the spill.
func TestJournalRestoreBuildFailureKeepsJournal(t *testing.T) {
	var broken atomic.Bool
	dir := t.TempDir()
	s, base := newTestServer(t, Config{
		Dir: dir,
		Build: func(spec string) (predictor.Predictor, error) {
			if broken.Load() {
				return nil, errors.New("injected construction failure")
			}
			return zoo.New(spec)
		},
	})
	recs := testTrace(t, 3000).Records()
	id := createSession(t, base, "bimode:b=11", "gshare:i=12,h=12").ID
	ingestText(t, base, id, textBody(recs[:2000]))
	ingestText(t, base, id, textBody(recs[2000:]))
	before, _ := rawReport(t, base, id)
	path := journalPath(dir, id)
	if tags := journalTags(t, path); tags != "HSB" {
		t.Fatalf("journal records %q, want HSB", tags)
	}
	file, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !s.KillSession(id) {
		t.Fatal("KillSession found no session")
	}

	broken.Store(true)
	for i := 0; i < 2; i++ {
		resp := doJSON(t, "GET", base+"/v1/sessions/"+id, nil, nil)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("restore with a failing builder: status %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatal("503 without Retry-After")
		}
	}
	if damaged, _ := filepath.Glob(filepath.Join(dir, "*.damaged")); len(damaged) != 0 {
		t.Fatalf("a sound journal was quarantined: %v", damaged)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, file) {
		t.Fatalf("the failed restore changed the journal (%v)", err)
	}

	broken.Store(false)
	if after, _ := rawReport(t, base, id); !bytes.Equal(after, before) {
		t.Fatalf("report after the builder healed differs:\nbefore: %s\nafter:  %s", before, after)
	}
}

// TestJournalRestoreMismatchIsDamage: a snapshot that the freshly built
// predictor refuses (here, a builder that now makes a smaller bi-mode
// for the same spec) is the journal's fault: a *journal.DamageError at
// the snapshot's record, 410 and quarantine.
func TestJournalRestoreMismatchIsDamage(t *testing.T) {
	dir := t.TempDir()
	s1, base := newTestServer(t, Config{Dir: dir})
	id := createSession(t, base, "bimode:b=11").ID
	ingestText(t, base, id, textBody(testTrace(t, 500).Records()))
	s1.Kill()

	s2, err := New(Config{Dir: dir, Build: func(string) (predictor.Predictor, error) {
		return zoo.New("bimode:b=10")
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var de *journal.DamageError
	if err := s2.restore(s2.sessions[id]); !errors.As(err, &de) || de.Index != 1 {
		t.Fatalf("restore: %v, want a *journal.DamageError at record 1", err)
	}
	rr := httptest.NewRecorder()
	s2.Handler().ServeHTTP(rr, httptest.NewRequest("GET", "/v1/sessions/"+id, nil))
	if rr.Code != http.StatusGone {
		t.Fatalf("status %d, want 410", rr.Code)
	}
	if _, err := os.Stat(journalPath(dir, id) + ".damaged"); err != nil {
		t.Fatalf("journal not quarantined: %v", err)
	}
}
