package serve

// Fuzzing of the HTTP ingest handler, the service's trust boundary for
// request bodies. One in-process server serves the whole run; each input
// gets a fresh session that first commits a fixed text prefix and then
// posts the input as a body. Only two outcomes are allowed: a 4xx that
// leaves the session's report, cursor included, byte-identical; or a 2xx
// that acknowledges exactly the records the body decodes to on its own
// (trace.Decode for bodies that open with a binary magic, trace.ImportText
// for anything else), after which every spec reports what one
// sim.Observe pass over the prefix and those records reports. A panic,
// which the guard renders as a 500, or any other status fails the
// target. The seed corpus in testdata/fuzz/FuzzIngestBody holds text and
// BMC1 bodies, whole and damaged, and bodies in the retired BMT1 row
// format, which Decode and the handler both refuse.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"bimode/internal/synth"
	"bimode/internal/trace"
)

// ingestFuzzSpecs are the specs of every fuzzed session.
var ingestFuzzSpecs = []string{"bimode:b=8", "gshare:i=8,h=6"}

// decodeBody decodes an ingest body the way its format's own decoder
// does, independently of the handler.
func decodeBody(body []byte) ([]trace.Record, error) {
	if len(body) >= 4 && (string(body[:4]) == "BMT1" || trace.IsColumnar(body)) {
		m, err := trace.Decode(body)
		if err != nil {
			return nil, err
		}
		return m.Records(), nil
	}
	m, err := trace.ImportText(bytes.NewReader(body), "body")
	if err != nil {
		return nil, err
	}
	return m.Records(), nil
}

func FuzzIngestBody(f *testing.F) {
	s, err := New(Config{Dir: f.TempDir()})
	if err != nil {
		f.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	prefix := trace.Materialize(synth.MustWorkload(synth.Profiles()[0].WithDynamic(64))).Records()
	prefixBody := []byte(textBody(prefix))
	create, _ := json.Marshal(createRequest{Name: "fuzz", Specs: ingestFuzzSpecs})

	f.Fuzz(func(t *testing.T, body []byte) {
		var created Report
		if err := json.Unmarshal(serveLocal(t, h, "POST", "/v1/sessions", create, http.StatusCreated), &created); err != nil {
			t.Fatal(err)
		}
		path := "/v1/sessions/" + created.ID
		serveLocal(t, h, "POST", path+"/branches", prefixBody, http.StatusOK)
		before := serveLocal(t, h, "GET", path, nil, http.StatusOK)
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, httptest.NewRequest("POST", path+"/branches", bytes.NewReader(body)))
		after := serveLocal(t, h, "GET", path, nil, http.StatusOK)
		serveLocal(t, h, "DELETE", path, nil, http.StatusOK)

		recs, decodeErr := decodeBody(body)
		switch {
		case rr.Code >= 400 && rr.Code < 500:
			if !bytes.Equal(before, after) {
				t.Fatalf("refused body (%d) changed the report:\nbefore %s\n after %s", rr.Code, before, after)
			}
			if decodeErr == nil {
				t.Fatalf("refused (%d) a body that decodes to %d records: %s", rr.Code, len(recs), rr.Body.Bytes())
			}
		case rr.Code >= 200 && rr.Code < 300:
			if decodeErr != nil {
				t.Fatalf("acknowledged a body its decoder refuses: %v", decodeErr)
			}
			var res ingestResult
			if err := json.Unmarshal(rr.Body.Bytes(), &res); err != nil {
				t.Fatal(err)
			}
			var rep Report
			if err := json.Unmarshal(after, &rep); err != nil {
				t.Fatal(err)
			}
			if res.Accepted != len(recs) || !sameReport(res.Report, rep) {
				t.Fatalf("acknowledged %d records of %d, or an ACK report that is not the committed one", res.Accepted, len(recs))
			}
			want := append(append([]trace.Record(nil), prefix...), recs...)
			if ref := remapFirstAppearance(want); rep.Cursor != ref.Len() || rep.Statics != ref.StaticCount() {
				t.Fatalf("cursor %d over %d sites, want %d over %d", rep.Cursor, rep.Statics, ref.Len(), ref.StaticCount())
			}
			for i, spec := range ingestFuzzSpecs {
				sameSpecReport(t, rep.Specs[i], referenceSpecReport(spec, want, s.cfg.TopN))
			}
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body.Bytes())
		}
	})
}
