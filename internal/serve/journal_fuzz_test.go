package serve

// Fuzzing of the session journal loader, the decoder every server start
// and every spilled session's return feeds. The writer is one
// deterministic session — a bi-mode spec and a smith spec that panics
// partway, so snapshots carry both a live observer and a frozen report —
// fed seven 100-record text bodies. Most of those bodies weigh less than
// the session's snapshot, so the writer's journal interleaves snapshots
// with body records (S B S B B S B). For any file, the loader may only
// refuse it with a typed error (*journal.DamageError or
// *journal.VersionError), a restore may only refuse it with a
// *journal.DamageError (a body record that does not replay), and
// otherwise the server restores a session that reports exactly as the
// writer reported at that cursor. The seed corpus in
// testdata/fuzz/FuzzLoadSessionJournal holds a version-3 journal of the
// earlier all-snapshot writer whole, truncated at a record boundary and
// mid-record, and with a flipped payload byte; a version-2 JSON-lines
// journal; and this writer's journal whole, torn inside a body record,
// and with a flipped body byte.

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bimode/internal/journal"
	"bimode/internal/predictor"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// fuzzSpecs are the fuzz writer's specs; the second fails mid-run.
var fuzzSpecs = []string{"bimode:b=8", "smith:a=8"}

// fuzzBody is the records in each of the fuzz writer's text bodies: few
// enough that most bodies weigh less than the session's snapshot, so the
// writer's journal holds body records (runs of them) between snapshots.
const fuzzBody = 100

// fuzzBuild is the fuzz writer's (and restorer's) predictor seam.
func fuzzBuild(spec string) (predictor.Predictor, error) {
	p, err := zoo.New(spec)
	if err == nil && spec == fuzzSpecs[1] {
		p = &panicAfterPredictor{Predictor: p, left: 250}
	}
	return p, err
}

// serveLocal performs one request against h in process, failing unless
// it answers with status want.
func serveLocal(tb testing.TB, h http.Handler, method, path string, body []byte, want int) []byte {
	tb.Helper()
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rr.Code != want {
		tb.Fatalf("%s %s: status %d, want %d: %s", method, path, rr.Code, want, rr.Body.Bytes())
	}
	return rr.Body.Bytes()
}

// sameReport reports whether two session reports are equal apart from
// the session id, which each writer run draws afresh.
func sameReport(a, b Report) bool {
	a.ID, b.ID = "", ""
	return reflect.DeepEqual(a, b)
}

// writeFuzzJournal runs the fuzz writer in dir and returns the session's
// journal path and its report after every commit, by cursor.
func writeFuzzJournal(tb testing.TB, dir string) (string, map[int]Report) {
	s, err := New(Config{Dir: dir, Build: fuzzBuild})
	if err != nil {
		tb.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	create, _ := json.Marshal(createRequest{Name: "fuzz", Specs: fuzzSpecs})
	var rep Report
	if err := json.Unmarshal(serveLocal(tb, h, "POST", "/v1/sessions", create, http.StatusCreated), &rep); err != nil {
		tb.Fatal(err)
	}
	reports := map[int]Report{}
	path := "/v1/sessions/" + rep.ID
	recs := trace.Materialize(synth.MustWorkload(synth.Profiles()[0].WithDynamic(700))).Records()
	for i := 0; ; i += fuzzBody {
		var r Report
		if err := json.Unmarshal(serveLocal(tb, h, "GET", path, nil, http.StatusOK), &r); err != nil {
			tb.Fatal(err)
		}
		reports[r.Cursor] = r
		if i == len(recs) {
			break
		}
		serveLocal(tb, h, "POST", path+"/branches", []byte(textBody(recs[i:i+fuzzBody])), http.StatusOK)
	}
	return journalPath(dir, rep.ID), reports
}

func FuzzLoadSessionJournal(f *testing.F) {
	_, history := writeFuzzJournal(f, f.TempDir())
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.session")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, _, _, err := openSessionJournal(path, 0)
		if err != nil {
			requireTyped(t, "load", err)
			return
		}
		j.close()
		hdr := j.hdr
		if hdr.Name != "fuzz" || !reflect.DeepEqual(hdr.Specs, fuzzSpecs) || hdr.Footnotes != nil ||
			len(hdr.ID) != 16 || filepath.Base(hdr.ID) != hdr.ID {
			t.Fatalf("loaded a header the writer never wrote: %+v", hdr)
		}

		// Restore it as a server start does: the snapshot, then the body
		// records replayed. Only a body record can still be refused here,
		// and only as damage.
		if err := os.Rename(path, journalPath(dir, hdr.ID)); err != nil {
			t.Fatal(err)
		}
		s, err := New(Config{Dir: dir, Build: fuzzBuild})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		sess := s.sessions[hdr.ID]
		if err := s.restore(sess); err != nil {
			requireTyped(t, "restore", err)
			return
		}
		cursor := sess.cursor
		sess.journal.close()
		wantRep, ok := history[cursor]
		if !ok {
			t.Fatalf("restored cursor %d, which the writer never committed", cursor)
		}
		var got Report
		if err := json.Unmarshal(serveLocal(t, s.Handler(), "GET", "/v1/sessions/"+hdr.ID, nil, http.StatusOK), &got); err != nil {
			t.Fatal(err)
		}
		if !sameReport(got, wantRep) {
			t.Fatalf("restored report at cursor %d differs from the writer's:\n got %+v\nwant %+v", cursor, got, wantRep)
		}
	})
}

// requireTyped fails the test unless err is a *journal.DamageError or a
// *journal.VersionError.
func requireTyped(t *testing.T, op string, err error) {
	t.Helper()
	var de *journal.DamageError
	var ve *journal.VersionError
	if !errors.As(err, &de) && !errors.As(err, &ve) {
		t.Fatalf("untyped %s error: %v", op, err)
	}
}
