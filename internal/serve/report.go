package serve

import (
	"encoding/json"
	"errors"
	"net/http"

	"bimode/internal/sim"
)

// Wire types for the service's JSON responses. Reports deliberately carry
// no timestamps or timing — only simulation state — so a report is a pure
// function of the branches committed to the session, and the kill-and-
// resume equivalence test can demand byte-identical bytes across a crash.

// Report is the session report returned by GET /v1/sessions/{id} and,
// incrementally, by every successful ingest.
type Report struct {
	ID   string `json:"id"`
	Name string `json:"name,omitempty"`
	// Cursor is the number of records committed so far; after a crash or
	// eviction a client resumes by re-streaming its capture from this
	// offset. It is the durability watermark: everything below it
	// survives any kill, everything above it was never acknowledged.
	Cursor  int `json:"cursor"`
	Statics int `json:"statics"`
	// Footnotes record graceful degradation: specs rejected at creation,
	// specs disabled by a runtime failure. A report with footnotes is
	// partial by declaration, never silently.
	Footnotes []string     `json:"footnotes,omitempty"`
	Specs     []SpecReport `json:"specs"`
}

// SpecReport is one predictor's slice of a Report: the fields of the
// spec's sim.Observer report, so the service's aliasing, choice and H2P
// figures are the ones cmd/obsreport prints for the same records, under
// the same definitions.
type SpecReport struct {
	Spec        string  `json:"spec"`
	Predictor   string  `json:"predictor,omitempty"`
	CostBytes   float64 `json:"cost_bytes,omitempty"`
	Mispredicts int     `json:"mispredicts"`
	// MispredictRate is mispredicts over the records the spec has seen
	// (0 when it has seen none).
	MispredictRate float64 `json:"mispredict_rate"`
	// Failed marks a spec disabled by a runtime failure; its report is
	// frozen at the point of failure and the session's footnotes say why.
	Failed bool `json:"failed,omitempty"`
	// Interference is present for predictor.Probe families; its
	// destructive count is the paper's Section 4 metric, and
	// aliased_mispredicts counts every mispredicted aliased access.
	Interference *sim.InterferenceMetrics `json:"interference,omitempty"`
	// Choice is present for families with a steering structure.
	Choice *sim.ChoiceMetrics `json:"choice,omitempty"`
	// Top is the spec's hard-to-predict ranking: static branches (session
	// static ids) ordered by mispredicts, at most Config.TopN rows.
	Top []sim.BranchMetrics `json:"top,omitempty"`
}

// ingestResult is the body of a successful POST .../branches: the updated
// report plus what this request contributed.
type ingestResult struct {
	Accepted int    `json:"accepted"`
	Report   Report `json:"report"`
}

// errorBody is the uniform JSON error envelope.
type errorBody struct {
	Error string `json:"error"`
}

// writeJSON renders v with a trailing newline (curl-friendly).
func writeJSON(w http.ResponseWriter, code int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		http.Error(w, `{"error":"encoding response"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	w.Write(append(data, '\n'))
}

// writeError renders err as the JSON envelope, honoring an httpError's
// status and Retry-After; anything else is a 500.
func writeError(w http.ResponseWriter, err error) {
	var he *httpError
	if !errors.As(err, &he) {
		he = &httpError{code: http.StatusInternalServerError, msg: err.Error()}
	}
	if he.retryAfter > 0 {
		w.Header().Set("Retry-After", retryAfterHeader(he.retryAfter))
	}
	writeJSON(w, he.code, errorBody{Error: he.msg})
}
