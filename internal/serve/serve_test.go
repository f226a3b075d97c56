package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"bimode/internal/predictor"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// snapSpecs are the Snapshotter-capable families the service exposes;
// the kill-resume suite runs every one of them.
var snapSpecs = []string{"bimode:b=11", "trimode:b=10", "gshare:i=12,h=12", "smith:a=12"}

// testTrace returns a small deterministic synthetic workload.
func testTrace(t *testing.T, dynamic int) *trace.Memory {
	t.Helper()
	p := synth.Profiles()[0].WithDynamic(dynamic)
	return trace.Materialize(synth.MustWorkload(p))
}

// textBody renders records in the text capture format.
func textBody(recs []trace.Record) string {
	var sb strings.Builder
	for _, rec := range recs {
		dir := "0"
		if rec.Taken {
			dir = "1"
		}
		fmt.Fprintf(&sb, "0x%x %s\n", rec.PC, dir)
	}
	return sb.String()
}

// newTestServer builds a Server on a temp dir and serves it over
// httptest; limits default high enough to stay out of the way unless a
// test lowers them.
func newTestServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	if cfg.Dir == "" {
		cfg.Dir = t.TempDir()
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts.URL
}

// doJSON performs one request and decodes the response body into out
// (when non-nil), returning the response for status/header checks.
func doJSON(t *testing.T, method, url string, body io.Reader, out any) *http.Response {
	t.Helper()
	req, err := http.NewRequest(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, url, err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("%s %s: reading response: %v", method, url, err)
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			t.Fatalf("%s %s: decoding %q: %v", method, url, data, err)
		}
	}
	return resp
}

// createSession opens a session and fails the test on any non-201.
func createSession(t *testing.T, base string, specs ...string) Report {
	t.Helper()
	body, _ := json.Marshal(createRequest{Name: "test", Specs: specs})
	var rep Report
	resp := doJSON(t, "POST", base+"/v1/sessions", bytes.NewReader(body), &rep)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d", resp.StatusCode)
	}
	return rep
}

// ingestText streams a text body into a session, expecting success.
func ingestText(t *testing.T, base, id, body string) ingestResult {
	t.Helper()
	var res ingestResult
	resp := doJSON(t, "POST", base+"/v1/sessions/"+id+"/branches", strings.NewReader(body), &res)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: status %d", resp.StatusCode)
	}
	return res
}

// rawReport fetches a session report as raw bytes (the byte-equivalence
// currency of the kill-resume suite) plus its parsed form.
func rawReport(t *testing.T, base, id string) ([]byte, Report) {
	t.Helper()
	resp, err := http.Get(base + "/v1/sessions/" + id)
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("report: status %d: %s", resp.StatusCode, data)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return data, rep
}

// TestSessionLifecycle walks the happy path end to end: create, ingest,
// incremental report, list, delete, gone.
func TestSessionLifecycle(t *testing.T) {
	_, base := newTestServer(t, Config{})
	mem := testTrace(t, 5000)
	recs := mem.Records()

	rep := createSession(t, base, "bimode:b=11", "smith:a=12")
	if rep.Cursor != 0 || len(rep.Specs) != 2 {
		t.Fatalf("fresh session: cursor %d, %d specs", rep.Cursor, len(rep.Specs))
	}

	res := ingestText(t, base, rep.ID, textBody(recs[:3000]))
	if res.Accepted != 3000 || res.Report.Cursor != 3000 {
		t.Fatalf("first ingest: accepted %d, cursor %d", res.Accepted, res.Report.Cursor)
	}
	res = ingestText(t, base, rep.ID, textBody(recs[3000:]))
	if res.Report.Cursor != len(recs) {
		t.Fatalf("second ingest: cursor %d, want %d", res.Report.Cursor, len(recs))
	}
	if res.Report.Statics == 0 {
		t.Fatalf("no statics after %d records", len(recs))
	}
	for _, sr := range res.Report.Specs {
		if sr.Mispredicts == 0 {
			t.Errorf("spec %q: zero mispredicts over a synthetic workload", sr.Spec)
		}
		if sr.Predictor == "" || sr.CostBytes == 0 {
			t.Errorf("spec %q: missing predictor identity (%q, %v)", sr.Spec, sr.Predictor, sr.CostBytes)
		}
	}
	// The bimode spec is a Probe with a choice: its interference and choice
	// metrics and its H2P ranking must be populated.
	if a := res.Report.Specs[0].Interference; a == nil || a.Counters == 0 {
		t.Errorf("bimode spec: no interference metrics (%+v)", a)
	}
	if c := res.Report.Specs[0].Choice; c == nil || c.Branches != len(recs) {
		t.Errorf("bimode spec: choice metrics %+v, want %d branches", c, len(recs))
	}
	if len(res.Report.Specs[0].Top) == 0 {
		t.Errorf("bimode spec: empty H2P ranking")
	}

	var list []sessionSummary
	doJSON(t, "GET", base+"/v1/sessions", nil, &list)
	if len(list) != 1 || list[0].ID != rep.ID {
		t.Fatalf("list: %+v", list)
	}

	if resp := doJSON(t, "DELETE", base+"/v1/sessions/"+rep.ID, nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", base+"/v1/sessions/"+rep.ID, nil, nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted session still answers: status %d", resp.StatusCode)
	}
}

// TestIngestFormatsEquivalent streams identical records as text and
// columnar; the two sessions must end in identical state (ids aside)
// because binary Static ids are remapped by PC.
func TestIngestFormatsEquivalent(t *testing.T) {
	_, base := newTestServer(t, Config{})
	mem := testTrace(t, 4000)

	var col bytes.Buffer
	if err := trace.WriteColumnar(&col, mem); err != nil {
		t.Fatal(err)
	}
	bodies := map[string][]byte{
		"text": []byte(textBody(mem.Records())),
		"bmc1": col.Bytes(),
	}

	reports := map[string]string{}
	for name, body := range bodies {
		rep := createSession(t, base, "bimode:b=11", "gshare:i=12,h=12")
		resp := doJSON(t, "POST", base+"/v1/sessions/"+rep.ID+"/branches", bytes.NewReader(body), nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s ingest: status %d", name, resp.StatusCode)
		}
		raw, got := rawReport(t, base, rep.ID)
		if got.Cursor != mem.Len() {
			t.Fatalf("%s: cursor %d, want %d", name, got.Cursor, mem.Len())
		}
		reports[name] = strings.ReplaceAll(string(raw), rep.ID, "SESSION")
	}
	if reports["text"] != reports["bmc1"] {
		t.Errorf("formats diverged:\ntext: %s\nbmc1: %s", reports["text"], reports["bmc1"])
	}
}

// bmt1Body is a two-record trace in the retired BMT1 row format, written
// out byte by byte: magic, static count, record count, name, then per
// record static<<1|taken and the zig-zag PC delta.
const bmt1Body = "BMT1\x03\x02\x03gcc\x01\x80\x40\x02\x10"

// TestBMT1BodyRefused: a BMT1 body is refused whole with a 400 that names
// BMC1, and the session's report does not move by a byte.
func TestBMT1BodyRefused(t *testing.T) {
	_, base := newTestServer(t, Config{})
	rep := createSession(t, base, "bimode:b=11", "gshare:i=12,h=12")
	ingestText(t, base, rep.ID, textBody(testTrace(t, 500).Records()))
	before, _ := rawReport(t, base, rep.ID)

	var errResp errorBody
	resp := doJSON(t, "POST", base+"/v1/sessions/"+rep.ID+"/branches", strings.NewReader(bmt1Body), &errResp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("BMT1 body: status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(errResp.Error, "BMT1") || !strings.Contains(errResp.Error, "BMC1") {
		t.Errorf("refusal %q does not name BMT1 and BMC1", errResp.Error)
	}
	if after, _ := rawReport(t, base, rep.ID); !bytes.Equal(before, after) {
		t.Fatalf("a refused BMT1 body changed the report:\nbefore %s\n after %s", before, after)
	}
}

// TestCreateDegradation: unusable specs are footnoted away, not fatal —
// unless nothing survives, which is the client's error.
func TestCreateDegradation(t *testing.T) {
	_, base := newTestServer(t, Config{})

	rep := createSession(t, base, "bimode:b=11", "nosuch:x=1", "gag:h=10")
	if len(rep.Specs) != 1 || rep.Specs[0].Spec != "bimode:b=11" {
		t.Fatalf("admitted specs: %+v", rep.Specs)
	}
	if len(rep.Footnotes) != 2 {
		t.Fatalf("footnotes: %v", rep.Footnotes)
	}
	for _, fn := range rep.Footnotes {
		if !strings.Contains(fn, "rejected") {
			t.Errorf("footnote %q does not say rejected", fn)
		}
	}
	// gag is a real family without Snapshotter: its footnote must say so
	// rather than claim the spec is unknown.
	if !strings.Contains(rep.Footnotes[1], "snapshot") {
		t.Errorf("non-snapshotter footnote: %q", rep.Footnotes[1])
	}

	body, _ := json.Marshal(createRequest{Specs: []string{"nosuch:x=1"}})
	if resp := doJSON(t, "POST", base+"/v1/sessions", bytes.NewReader(body), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("all-bad create: status %d", resp.StatusCode)
	}
	body, _ = json.Marshal(createRequest{})
	if resp := doJSON(t, "POST", base+"/v1/sessions", bytes.NewReader(body), nil); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty create: status %d", resp.StatusCode)
	}
}

// panicAfterPredictor wraps a predictor to panic on the nth Update —
// the runtime-failure seam for degradation tests.
type panicAfterPredictor struct {
	predictor.Predictor
	left int
}

func (p *panicAfterPredictor) Update(pc uint64, taken bool) {
	p.left--
	if p.left < 0 {
		panic("injected predictor failure")
	}
	p.Predictor.Update(pc, taken)
}

func (p *panicAfterPredictor) Snapshot(dst []byte) []byte {
	return p.Predictor.(predictor.Snapshotter).Snapshot(dst)
}
func (p *panicAfterPredictor) RestoreSnapshot(data []byte) error {
	return p.Predictor.(predictor.Snapshotter).RestoreSnapshot(data)
}

// TestRuntimeDegradation: a spec that panics mid-ingest is disabled with
// a footnote; the session's other specs keep going and later ingests
// succeed.
func TestRuntimeDegradation(t *testing.T) {
	cfg := Config{Build: func(spec string) (predictor.Predictor, error) {
		p, err := zoo.New(spec)
		if err != nil {
			return nil, err
		}
		if spec == "smith:a=12" {
			return &panicAfterPredictor{Predictor: p, left: 100}, nil
		}
		return p, nil
	}}
	srv, base := newTestServer(t, cfg)
	mem := testTrace(t, 2000)

	rep := createSession(t, base, "bimode:b=11", "smith:a=12")
	res := ingestText(t, base, rep.ID, textBody(mem.Records()))
	if res.Report.Cursor != mem.Len() {
		t.Fatalf("ingest around the failure: cursor %d, want %d", res.Report.Cursor, mem.Len())
	}
	var failed, live *SpecReport
	for i := range res.Report.Specs {
		if res.Report.Specs[i].Spec == "smith:a=12" {
			failed = &res.Report.Specs[i]
		} else {
			live = &res.Report.Specs[i]
		}
	}
	if failed == nil || !failed.Failed {
		t.Fatalf("injected failure not reported: %+v", res.Report.Specs)
	}
	if live == nil || live.Failed || live.Mispredicts == 0 {
		t.Fatalf("surviving spec damaged: %+v", live)
	}
	// The wrapper panics in the 101st Update: the footnote names that
	// record, and the frozen report covers exactly the 100 before it.
	found := false
	for _, fn := range res.Report.Footnotes {
		if strings.Contains(fn, "smith:a=12") && strings.Contains(fn, "disabled at record 100") {
			found = true
		}
	}
	if !found {
		t.Errorf("no disable footnote at record 100: %v", res.Report.Footnotes)
	}
	srv.mu.Lock()
	sess := srv.sessions[rep.ID]
	srv.mu.Unlock()
	sess.mu <- struct{}{}
	var frozenBranches int
	for _, sp := range sess.specs {
		if sp.spec == "smith:a=12" && sp.frozen != nil {
			frozenBranches = sp.frozen.Branches
		}
	}
	<-sess.mu
	if frozenBranches != 100 {
		t.Errorf("frozen report covers %d branches, want 100", frozenBranches)
	}

	// The degraded session still ingests, and the failed spec's counts
	// stay frozen.
	frozen := failed.Mispredicts
	res = ingestText(t, base, rep.ID, textBody(mem.Records()[:500]))
	for _, sr := range res.Report.Specs {
		if sr.Spec == "smith:a=12" && sr.Mispredicts != frozen {
			t.Errorf("failed spec counts moved: %d -> %d", frozen, sr.Mispredicts)
		}
	}
}

// TestBadBodies: decode failures are client errors that roll back —
// the cursor never moves, and a clean retry succeeds.
func TestBadBodies(t *testing.T) {
	_, base := newTestServer(t, Config{})
	mem := testTrace(t, 1000)
	rep := createSession(t, base, "bimode:b=11")
	url := base + "/v1/sessions/" + rep.ID + "/branches"

	good := textBody(mem.Records()[:100])
	ingestText(t, base, rep.ID, good)

	cases := []struct {
		name string
		body []byte
	}{
		{"bad text line", []byte("0x1000 1\n0x2000 maybe\n")},
		{"truncated bmt1", []byte(bmt1Body[:len(bmt1Body)-5])},
		{"corrupt bmc1", func() []byte {
			var buf bytes.Buffer
			if err := trace.WriteColumnar(&buf, mem); err != nil {
				t.Fatal(err)
			}
			data := buf.Bytes()
			data[len(data)/2] ^= 0x40
			return data
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp := doJSON(t, "POST", url, bytes.NewReader(tc.body), nil)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", resp.StatusCode)
			}
			_, got := rawReport(t, base, rep.ID)
			if got.Cursor != 100 {
				t.Fatalf("failed ingest moved the cursor to %d", got.Cursor)
			}
		})
	}

	// Line numbers survive into the error body, exactly as ImportText
	// reports them.
	var errResp errorBody
	doJSON(t, "POST", url, strings.NewReader("0x1 1\n\n0x2 nope\n"), &errResp)
	if !strings.Contains(errResp.Error, "line 3") {
		t.Errorf("text error lost its line number: %q", errResp.Error)
	}

	// And the rolled-back session still works.
	res := ingestText(t, base, rep.ID, good)
	if res.Report.Cursor != 200 {
		t.Fatalf("post-rollback ingest: cursor %d, want 200", res.Report.Cursor)
	}
}

// TestAdmissionBodyLimit: an oversized body is refused with 413 and no
// state change, in the text format and in the binary ones, which are
// read whole before decoding.
func TestAdmissionBodyLimit(t *testing.T) {
	_, base := newTestServer(t, Config{MaxBodyBytes: 1024})
	mem := testTrace(t, 2000)
	var bmc1 bytes.Buffer
	if err := trace.WriteColumnar(&bmc1, mem); err != nil {
		t.Fatal(err)
	}
	for name, big := range map[string]string{
		"text": strings.Repeat("0x1000 1\n", 1024),
		"bmc1": bmc1.String(),
	} {
		rep := createSession(t, base, "smith:a=12")
		resp := doJSON(t, "POST", base+"/v1/sessions/"+rep.ID+"/branches", strings.NewReader(big), nil)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversize %s body: status %d, want 413", name, resp.StatusCode)
		}
		_, got := rawReport(t, base, rep.ID)
		if got.Cursor != 0 {
			t.Fatalf("oversize %s body committed %d records", name, got.Cursor)
		}
	}
}

// TestBinaryClientIDsUntrusted: a binary body's static ids are the
// client's, so the session maps sites by PC whatever they say. Bodies
// whose ids are shuffled, shared by several PCs, or near 2^30 under a
// matching static count still report exactly like one Observe pass, and
// the per-session id remap stays within the sites plus one body.
func TestBinaryClientIDsUntrusted(t *testing.T) {
	s, base := newTestServer(t, Config{})
	const spec, per = "bimode:b=11", 1000
	recs := testTrace(t, 4*per).Records()
	id := createSession(t, base, spec).ID
	rewrites := []func(st uint32) uint32{
		func(st uint32) uint32 { return st },
		func(st uint32) uint32 { return st * 7919 % 97 },
		func(st uint32) uint32 { return st % 3 },
		func(st uint32) uint32 { return st + 1<<30 },
	}
	for i, rewrite := range rewrites {
		body := append([]trace.Record(nil), recs[i*per:(i+1)*per]...)
		statics := 0
		for j := range body {
			body[j].Static = rewrite(body[j].Static)
			statics = max(statics, int(body[j].Static)+1)
		}
		var buf bytes.Buffer
		if err := trace.WriteColumnar(&buf, trace.NewMemory("client", statics, body)); err != nil {
			t.Fatal(err)
		}
		ingestText(t, base, id, buf.String())
	}
	_, rep := rawReport(t, base, id)
	sameSpecReport(t, rep.Specs[0], referenceSpecReport(spec, recs, s.cfg.TopN))

	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess.lock(context.Background()) != nil {
		t.Fatal("locking the session")
	}
	defer sess.unlock()
	if len(sess.remap) > sess.sites.Len()+per {
		t.Fatalf("remap grew to %d entries for %d sites and %d-record bodies", len(sess.remap), sess.sites.Len(), per)
	}
}

// TestAdmissionIngestRate: the token bucket refuses work past the budget
// with 429 and an honest Retry-After, deterministically under a fake
// clock.
func TestAdmissionIngestRate(t *testing.T) {
	now := time.Unix(1000, 0)
	_, base := newTestServer(t, Config{
		IngestRate:  1000,
		IngestBurst: 1000,
		Now:         func() time.Time { return now },
	})
	mem := testTrace(t, 1500)
	rep := createSession(t, base, "smith:a=12")
	url := base + "/v1/sessions/" + rep.ID + "/branches"

	// 1000 records fit the burst exactly...
	ingestText(t, base, rep.ID, textBody(mem.Records()[:1000]))
	// ...and the very next record is over budget until the clock moves.
	resp := doJSON(t, "POST", url, strings.NewReader(textBody(mem.Records()[1000:1001])), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget ingest: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatalf("429 without Retry-After")
	}
	_, got := rawReport(t, base, rep.ID)
	if got.Cursor != 1000 {
		t.Fatalf("rejected ingest moved the cursor to %d", got.Cursor)
	}

	// Advancing the clock refills the bucket and the retry succeeds.
	now = now.Add(time.Second)
	res := ingestText(t, base, rep.ID, textBody(mem.Records()[1000:1500]))
	if res.Report.Cursor != 1500 {
		t.Fatalf("post-refill ingest: cursor %d", res.Report.Cursor)
	}
}

// TestAdmissionInFlight: with a single in-flight slot, a second request
// is turned away immediately with 429 rather than queued.
func TestAdmissionInFlight(t *testing.T) {
	_, base := newTestServer(t, Config{MaxInFlight: 1})
	rep := createSession(t, base, "smith:a=12")
	url := base + "/v1/sessions/" + rep.ID + "/branches"

	// Hold the only slot with a request whose body never finishes.
	pr, pw := io.Pipe()
	errc := make(chan error, 1)
	go func() {
		req, _ := http.NewRequest("POST", url, pr)
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	if _, err := pw.Write([]byte("0x1000 1\n")); err != nil {
		t.Fatal(err)
	}
	// The slot is held from the moment the handler starts; poll until the
	// gate is visibly occupied, then assert rejection.
	deadline := time.Now().Add(2 * time.Second)
	for {
		resp := doJSON(t, "GET", base+"/v1/sessions/"+rep.ID, nil, nil)
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("429 without Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("in-flight gate never rejected (last status %d)", resp.StatusCode)
		}
		time.Sleep(5 * time.Millisecond)
	}
	pw.Close()
	if err := <-errc; err != nil {
		t.Fatalf("held request: %v", err)
	}
}

// TestAdmissionSessionCap: the session table is bounded.
func TestAdmissionSessionCap(t *testing.T) {
	_, base := newTestServer(t, Config{MaxSessions: 1})
	createSession(t, base, "smith:a=12")
	body, _ := json.Marshal(createRequest{Specs: []string{"smith:a=12"}})
	resp := doJSON(t, "POST", base+"/v1/sessions", bytes.NewReader(body), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: status %d, want 429", resp.StatusCode)
	}
}

// TestAdmissionSessionCapBuildsNothing: a create refused because the
// session table is full builds no predictor and leaves no journal file
// behind, so a stream of refused requests costs no predictor memory.
func TestAdmissionSessionCapBuildsNothing(t *testing.T) {
	dir := t.TempDir()
	var builds atomic.Int64
	_, base := newTestServer(t, Config{Dir: dir, MaxSessions: 1, Build: func(spec string) (predictor.Predictor, error) {
		builds.Add(1)
		return zoo.New(spec)
	}})
	createSession(t, base, "bimode:b=11")
	before, err := filepath.Glob(filepath.Join(dir, "*.session"))
	if err != nil || len(before) != 1 {
		t.Fatalf("after one create: session files %v (%v), want one", before, err)
	}
	builds.Store(0)
	body, _ := json.Marshal(createRequest{Specs: []string{"bimode:b=11", "gshare:i=12,h=12"}})
	resp := doJSON(t, "POST", base+"/v1/sessions", bytes.NewReader(body), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-cap create: status %d, want 429", resp.StatusCode)
	}
	if n := builds.Load(); n != 0 {
		t.Errorf("the refused create built %d predictors, want 0", n)
	}
	if after, _ := filepath.Glob(filepath.Join(dir, "*.session")); !slices.Equal(after, before) {
		t.Errorf("session files went from %v to %v", before, after)
	}
}

// TestEvictionTransparent: with one resident slot, two sessions ingest
// alternately; every request after the first evicts the other session,
// and none of it is visible in the reports.
func TestEvictionTransparent(t *testing.T) {
	s, base := newTestServer(t, Config{MaxResident: 1})
	mem := testTrace(t, 3000)
	recs := mem.Records()

	a := createSession(t, base, "bimode:b=11")
	b := createSession(t, base, "bimode:b=11")
	for i := 0; i < 3; i++ {
		lo, hi := i*1000, (i+1)*1000
		ingestText(t, base, a.ID, textBody(recs[lo:hi]))
		ingestText(t, base, b.ID, textBody(recs[lo:hi]))
	}
	if ev := s.ctr.evictions.Load(); ev == 0 {
		t.Fatalf("no evictions with MaxResident=1 and two active sessions")
	}
	rawA, repA := rawReport(t, base, a.ID)
	rawB, repB := rawReport(t, base, b.ID)
	if repA.Cursor != 3000 || repB.Cursor != 3000 {
		t.Fatalf("cursors %d/%d, want 3000", repA.Cursor, repB.Cursor)
	}
	// Identical inputs, identical state: the two sessions' reports differ
	// only by id.
	if strings.ReplaceAll(string(rawA), a.ID, "X") != strings.ReplaceAll(string(rawB), b.ID, "X") {
		t.Errorf("eviction perturbed session state:\nA: %s\nB: %s", rawA, rawB)
	}
}

// TestDrain: BeginDrain flips readiness and refuses new sessions while
// existing sessions keep working.
func TestDrain(t *testing.T) {
	s, base := newTestServer(t, Config{})
	rep := createSession(t, base, "smith:a=12")

	s.BeginDrain()
	if resp := doJSON(t, "GET", base+"/readyz", nil, nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining readyz: status %d", resp.StatusCode)
	}
	if resp := doJSON(t, "GET", base+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining healthz: status %d", resp.StatusCode)
	}
	body, _ := json.Marshal(createRequest{Specs: []string{"smith:a=12"}})
	if resp := doJSON(t, "POST", base+"/v1/sessions", bytes.NewReader(body), nil); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining create: status %d", resp.StatusCode)
	}
	res := ingestText(t, base, rep.ID, "0x1000 1\n0x2000 0\n")
	if res.Report.Cursor != 2 {
		t.Fatalf("draining ingest broken: %+v", res.Report)
	}
}

// TestPanicRecovery: a handler-level panic (not a per-spec one) becomes
// a 500, the server survives, and the panic counter records it.
func TestPanicRecovery(t *testing.T) {
	cfg := Config{Build: func(spec string) (predictor.Predictor, error) {
		panic("wild panic, not an error")
	}}
	// zoo.New-style builders convert panics; this one deliberately does
	// not, and buildOnce must contain it.
	s, base := newTestServer(t, cfg)
	body, _ := json.Marshal(createRequest{Specs: []string{"bimode:b=11"}})
	resp := doJSON(t, "POST", base+"/v1/sessions", bytes.NewReader(body), nil)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("builder panic: status %d (want 400: spec rejected)", resp.StatusCode)
	}
	if s.ctr.panics.Load() != 0 {
		t.Fatalf("contained panic leaked to the recovery middleware")
	}
	if resp := doJSON(t, "GET", base+"/healthz", nil, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("server did not survive: %d", resp.StatusCode)
	}
}
