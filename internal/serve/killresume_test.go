package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bimode/internal/journal"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// The service-layer kill-and-resume suite: the analogue of internal/sim's
// TestKillResumeEquivalence, one layer up. The contract under test is the
// commit-per-request durability rule — everything a client was told is
// committed survives any crash, byte-for-byte, and everything else rolls
// back to the last acknowledged cursor.

// TestKillResumeEquivalence runs every exposed Snapshotter family
// through crash-shaped interruptions:
//
//  1. ingest part of a trace, record the report
//  2. Kill (drop all in-memory state with no journal write — exactly
//     what a process crash loses)
//  3. the report must come back byte-identical, and
//  4. ingesting the remainder must land the session in the same state as
//     an uninterrupted control session fed the whole trace.
func TestKillResumeEquivalence(t *testing.T) {
	for _, spec := range snapSpecs {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			s, base := newTestServer(t, Config{})
			mem := testTrace(t, 6000)
			recs := mem.Records()

			victim := createSession(t, base, spec)
			control := createSession(t, base, spec)

			// Control ingests everything in one uninterrupted stream.
			ingestText(t, base, control.ID, textBody(recs))

			// The victim is killed between every chunk.
			cuts := []int{0, 1500, 3000, 4500, len(recs)}
			for i := 0; i+1 < len(cuts); i++ {
				ingestText(t, base, victim.ID, textBody(recs[cuts[i]:cuts[i+1]]))
				before, rep := rawReport(t, base, victim.ID)
				if rep.Cursor != cuts[i+1] {
					t.Fatalf("cursor %d after ingesting to %d", rep.Cursor, cuts[i+1])
				}
				s.Kill()
				after, _ := rawReport(t, base, victim.ID)
				if !bytes.Equal(before, after) {
					t.Fatalf("report changed across kill at cursor %d:\nbefore: %s\nafter:  %s",
						cuts[i+1], before, after)
				}
			}

			rawV, _ := rawReport(t, base, victim.ID)
			rawC, _ := rawReport(t, base, control.ID)
			got := strings.ReplaceAll(string(rawV), victim.ID, "SESSION")
			want := strings.ReplaceAll(string(rawC), control.ID, "SESSION")
			if got != want {
				t.Fatalf("killed-and-resumed state diverged from uninterrupted control:\ngot:  %s\nwant: %s", got, want)
			}
		})
	}
}

// TestServerRestartRecovery: a brand-new Server over the same journal
// directory re-registers every session and serves identical reports —
// process death, not just session eviction.
func TestServerRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	mem := testTrace(t, 3000)

	s1, base1 := newTestServer(t, Config{Dir: dir})
	rep := createSession(t, base1, "bimode:b=11", "smith:a=12")
	ingestText(t, base1, rep.ID, textBody(mem.Records()))
	before, _ := rawReport(t, base1, rep.ID)
	// Simulate a hard stop: drop everything in memory, release handles.
	s1.Kill()
	s1.Close()

	_, base2 := newTestServer(t, Config{Dir: dir})
	after, got := rawReport(t, base2, rep.ID)
	if !bytes.Equal(before, after) {
		t.Fatalf("report changed across server restart:\nbefore: %s\nafter:  %s", before, after)
	}
	if got.Cursor != mem.Len() {
		t.Fatalf("restart lost committed records: cursor %d", got.Cursor)
	}
	// The recovered session is live, not a read-only fossil.
	res := ingestText(t, base2, rep.ID, "0x1234 1\n")
	if res.Report.Cursor != mem.Len()+1 {
		t.Fatalf("recovered session refuses ingest: cursor %d", res.Report.Cursor)
	}
}

// TestBraceLengthHeaderRestarts: a journal whose header record is 123 or
// 379 bytes long starts with '{', the first byte of a JSON-lines journal
// of an earlier build. Its session still reloads after a kill and after
// a server restart, rather than being taken for a legacy journal and
// quarantined.
func TestBraceLengthHeaderRestarts(t *testing.T) {
	const spec = "bimode:b=12"
	for _, size := range []int{123, 379} {
		// The name length that makes the header record size bytes; a
		// session id is always 16 characters.
		n := 0
		for len(appendHeader(nil, sessionHeader{ID: strings.Repeat("0", 16), Name: strings.Repeat("n", n), Specs: []string{spec}})) < size {
			n++
		}
		dir := t.TempDir()
		s1, base1 := newTestServer(t, Config{Dir: dir})
		body, _ := json.Marshal(createRequest{Name: strings.Repeat("n", n), Specs: []string{spec}})
		var rep Report
		if resp := doJSON(t, "POST", base1+"/v1/sessions", bytes.NewReader(body), &rep); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create: status %d", resp.StatusCode)
		}
		ingestText(t, base1, rep.ID, "0x1000 1\n0x2000 0\n")
		before, _ := rawReport(t, base1, rep.ID)
		path := journalPath(dir, rep.ID)
		if data, err := os.ReadFile(path); err != nil || data[0] != '{' {
			t.Fatalf("%d-byte header: the journal does not start with '{' (%v)", size, err)
		}

		s1.Kill()
		if after, _ := rawReport(t, base1, rep.ID); !bytes.Equal(before, after) {
			t.Fatalf("%d-byte header: report changed across a kill:\nbefore: %s\nafter:  %s", size, before, after)
		}
		s1.Kill()
		s1.Close()
		_, base2 := newTestServer(t, Config{Dir: dir})
		if after, _ := rawReport(t, base2, rep.ID); !bytes.Equal(before, after) {
			t.Fatalf("%d-byte header: report changed across a restart:\nbefore: %s\nafter:  %s", size, before, after)
		}
	}
}

// TestUnacknowledgedLossOnly: records in a request that was never
// acknowledged (its body failed mid-stream) are not merely invisible —
// after a kill and resume they were provably never applied.
func TestUnacknowledgedLossOnly(t *testing.T) {
	s, base := newTestServer(t, Config{})
	mem := testTrace(t, 2000)
	recs := mem.Records()

	rep := createSession(t, base, "gshare:i=12,h=12")
	ingestText(t, base, rep.ID, textBody(recs[:1000]))
	committed, _ := rawReport(t, base, rep.ID)

	// A failing body: valid lines followed by garbage. The valid prefix
	// must NOT be committed.
	bad := textBody(recs[1000:1500]) + "0xnope nope\n"
	resp := doJSON(t, "POST", base+"/v1/sessions/"+rep.ID+"/branches", strings.NewReader(bad), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body: status %d", resp.StatusCode)
	}
	s.Kill()
	after, got := rawReport(t, base, rep.ID)
	if !bytes.Equal(committed, after) {
		t.Fatalf("failed request leaked state:\nbefore: %s\nafter:  %s", committed, after)
	}
	if got.Cursor != 1000 {
		t.Fatalf("cursor %d, want the last acknowledged 1000", got.Cursor)
	}
}

// TestDamagedJournalQuarantined: interior journal damage makes the
// session unrecoverable — 410, the file set aside as .damaged, never
// guessed-at state.
func TestDamagedJournalQuarantined(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Dir: dir})
	rep := createSession(t, base, "smith:a=12")
	ingestText(t, base, rep.ID, "0x1000 1\n0x2000 0\n")
	ingestText(t, base, rep.ID, "0x1000 0\n")
	s.Kill() // release in-memory state so recovery must read the file

	path := journalPath(dir, rep.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Damage a byte of the header record's frame (its header check) —
	// interior damage, not a torn tail: a complete frame header that does
	// not check.
	data[10] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	resp := doJSON(t, "GET", base+"/v1/sessions/"+rep.ID, nil, nil)
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("damaged session: status %d, want 410", resp.StatusCode)
	}
	if _, err := os.Stat(path + ".damaged"); err != nil {
		t.Fatalf("damaged journal not quarantined: %v", err)
	}
	// The id is gone from the table entirely.
	if resp := doJSON(t, "GET", base+"/v1/sessions/"+rep.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("quarantined session still registered: status %d", resp.StatusCode)
	}
}

// TestTornTailTolerated: a journal whose final record was cut mid-write
// (a killed writer) recovers to the previous snapshot instead of being
// quarantined.
func TestTornTailTolerated(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Dir: dir})
	rep := createSession(t, base, "smith:a=12")
	ingestText(t, base, rep.ID, "0x1000 1\n0x2000 0\n")
	committed, _ := rawReport(t, base, rep.ID)
	ingestText(t, base, rep.ID, "0x3000 1\n")
	s.Kill()

	// Tear the last record: chop the file mid-way through its payload.
	path := journalPath(dir, rep.ID)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var last []byte
	if _, err := journal.Scan(data, func(_ int64, payload []byte) error { last = payload; return nil }); err != nil {
		t.Fatal(err)
	}
	torn := data[:len(data)-len(last)/2]
	if err := os.WriteFile(path, torn, 0o644); err != nil {
		t.Fatal(err)
	}

	after, got := rawReport(t, base, rep.ID)
	if got.Cursor != 2 {
		t.Fatalf("torn tail recovered to cursor %d, want 2", got.Cursor)
	}
	if !bytes.Equal(committed, after) {
		t.Fatalf("torn-tail recovery diverged:\nwant: %s\ngot:  %s", committed, after)
	}
}

// TestJournalCompaction: a long-lived session's journal stays bounded,
// and compaction is invisible to the session's state.
func TestJournalCompaction(t *testing.T) {
	dir := t.TempDir()
	s, base := newTestServer(t, Config{Dir: dir, CompactBytes: 8 * 1024})
	mem := testTrace(t, 4000)
	recs := mem.Records()

	rep := createSession(t, base, "bimode:b=11")
	for i := 0; i+100 <= len(recs); i += 100 {
		ingestText(t, base, rep.ID, textBody(recs[i:i+100]))
	}
	fi, err := os.Stat(journalPath(dir, rep.ID))
	if err != nil {
		t.Fatal(err)
	}
	// 40 snapshots of a 2^11-bank bimode would be megabytes; compaction
	// must have kept the file near one snapshot's size.
	if fi.Size() > 64*1024 {
		t.Fatalf("journal grew to %d bytes despite CompactBytes=8KiB", fi.Size())
	}

	before, got := rawReport(t, base, rep.ID)
	if got.Cursor != 4000 {
		t.Fatalf("cursor %d", got.Cursor)
	}
	s.Kill()
	after, _ := rawReport(t, base, rep.ID)
	if !bytes.Equal(before, after) {
		t.Fatalf("compacted journal lost state:\nbefore: %s\nafter: %s", before, after)
	}

	// No stray temp files linger.
	matches, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(matches) != 0 {
		t.Fatalf("compaction left temp files: %v", matches)
	}
}

// remapFirstAppearance renumbers static ids densely in first-appearance
// order of the PC — the id space a session assigns as records arrive.
func remapFirstAppearance(recs []trace.Record) *trace.Memory {
	ids := map[uint64]uint32{}
	out := make([]trace.Record, len(recs))
	for i, r := range recs {
		st, ok := ids[r.PC]
		if !ok {
			st = uint32(len(ids))
			ids[r.PC] = st
		}
		r.Static = st
		out[i] = r
	}
	return trace.NewMemory("reference", len(ids), out)
}

// referenceSpecReport is the report a session's spec must serve after
// committing exactly recs: one sim.Observe pass over them, remapped to
// the session's id space.
func referenceSpecReport(spec string, recs []trace.Record, topN int) SpecReport {
	r := sim.Observe(zoo.MustNew(spec), remapFirstAppearance(recs), sim.ObserveOptions{TopN: topN})
	return SpecReport{
		Spec:           spec,
		Predictor:      r.Predictor,
		CostBytes:      r.CostBytes,
		Mispredicts:    r.Mispredicts,
		MispredictRate: r.MispredictRate,
		Interference:   r.Interference,
		Choice:         r.Choice,
		Top:            r.TopBranches,
	}
}

// sameSpecReport fails the test unless two spec reports serialize
// identically.
func sameSpecReport(t *testing.T, got, want SpecReport) {
	t.Helper()
	g, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	w, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g, w) {
		t.Errorf("spec %q report diverged from one Observe pass:\n got %s\nwant %s", got.Spec, g, w)
	}
}

// TestSessionMatchesOneObservePass: for every service family, a session
// fed a suite trace in random chunk sizes, through text and binary
// bodies, with the server killed and restarted over the same journal
// directory between chunks, reports exactly what one sim.Observe pass
// over the whole trace does — interference, choice, H2P ranking and
// mispredicts.
func TestSessionMatchesOneObservePass(t *testing.T) {
	prof, ok := synth.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	mem := trace.Materialize(synth.MustWorkload(prof.WithDynamic(6000)))
	recs := mem.Records()
	for i, spec := range snapSpecs {
		spec := spec
		rng := rand.New(rand.NewSource(int64(i + 1)))
		t.Run(spec, func(t *testing.T) {
			dir := t.TempDir()
			s, base := newTestServer(t, Config{Dir: dir})
			id := createSession(t, base, spec).ID
			for pos := 0; pos < len(recs); {
				n := min(1+rng.Intn(1500), len(recs)-pos)
				chunk := recs[pos : pos+n]
				if rng.Intn(2) == 0 {
					ingestText(t, base, id, textBody(chunk))
				} else {
					var buf bytes.Buffer
					if err := trace.WriteColumnar(&buf, trace.NewMemory("chunk", mem.StaticCount(), chunk)); err != nil {
						t.Fatal(err)
					}
					ingestText(t, base, id, buf.String())
				}
				pos += n
				s.Kill()
				s.Close()
				s, base = newTestServer(t, Config{Dir: dir})
			}

			_, rep := rawReport(t, base, id)
			if rep.Cursor != len(recs) || len(rep.Specs) != 1 {
				t.Fatalf("cursor %d with %d specs, want %d with 1", rep.Cursor, len(rep.Specs), len(recs))
			}
			sameSpecReport(t, rep.Specs[0], referenceSpecReport(spec, recs, s.cfg.TopN))
		})
	}
}

// TestV1JournalQuarantined: a JSON-lines journal of an earlier build —
// version 1 (hand-kept counters) or version 2 (observer snapshots in
// base64) — is refused with a version error and quarantined, never
// converted by guesswork. The fixtures are real journals those builds
// wrote.
func TestV1JournalQuarantined(t *testing.T) {
	for _, fixture := range []string{"legacy_v1.jsonl", "legacy_v2.jsonl"} {
		t.Run(strings.TrimSuffix(fixture, ".jsonl"), func(t *testing.T) {
			legacy, err := os.ReadFile(filepath.Join("testdata", fixture))
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			s, base := newTestServer(t, Config{Dir: dir})
			rep := createSession(t, base, "smith:a=12")
			ingestText(t, base, rep.ID, "0x1000 1\n0x2000 0\n")
			s.Kill()

			path := journalPath(dir, rep.ID)
			var ve *journal.VersionError
			if _, err := readSessionHeader(path); err != nil {
				t.Fatalf("the current journal does not load: %v", err)
			}
			if err := os.WriteFile(path, legacy, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := readSessionHeader(path); !errors.As(err, &ve) {
				t.Fatalf("loading %s: err %v, want a *journal.VersionError", fixture, err)
			}
			if resp := doJSON(t, "GET", base+"/v1/sessions/"+rep.ID, nil, nil); resp.StatusCode != http.StatusGone {
				t.Fatalf("%s journal: status %d, want 410", fixture, resp.StatusCode)
			}
			if _, err := os.Stat(path + ".damaged"); err != nil {
				t.Fatalf("%s journal not quarantined: %v", fixture, err)
			}
		})
	}
}
