// Package serve is the prediction service: branch-prediction simulation
// as a long-lived HTTP service (cmd/predserve) rather than a batch run.
// Clients open sessions naming predictor specs, stream branch traces as
// text captures or "BMC1" columnar binary, and read incremental
// mispredict / aliasing / H2P reports as the trace accumulates.
//
// The design center is crash-safety under hostile conditions — the
// robustness contract the chaos suite (chaos_test.go) enforces:
//
//   - Durability. Every successful ingest is journaled before it is
//     acknowledged: as its request body verbatim, or as a full session
//     snapshot (predictor state included, via predictor.Snapshotter)
//     once the bodies logged since the last one outweigh it. A crash,
//     kill, or eviction loses only requests that were never
//     acknowledged; a reload replays the logged bodies onto the last
//     snapshot, the client resumes from the reported cursor, and reports
//     come back byte-identical.
//   - Bounded memory. Sessions past Config.MaxResident are spilled to
//     their journals LRU-first; the total session count is capped.
//   - Admission control. Concurrency (Config.MaxInFlight), body size
//     (Config.MaxBodyBytes) and ingest rate (Config.IngestRate) are all
//     bounded, with 429 + Retry-After — never queueing collapse.
//   - Graceful degradation. A spec that fails to build or panics at
//     runtime is footnoted and disabled; the session keeps serving its
//     surviving specs (the cmd/paper partial-report idiom).
//   - Graceful drain. BeginDrain flips /readyz and refuses new
//     sessions while in-flight work completes.
package serve

import (
	"container/list"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bimode/internal/predictor"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// Config parameterizes a Server. The zero value is usable: every limit
// defaults to the production setting noted on its field.
type Config struct {
	// Dir is where session journals live (default: a fresh temp dir, in
	// which case nothing survives the process — pass a real directory to
	// get crash recovery).
	Dir string

	// MaxSessions caps live sessions, resident or spilled (default 1024).
	MaxSessions int
	// MaxResident caps sessions with predictors in memory; the least
	// recently used spill to their journals past it (default 64).
	MaxResident int
	// MaxInFlight caps concurrently executing session requests; excess
	// requests get 429 immediately (default 64).
	MaxInFlight int
	// MaxBodyBytes caps one request body (default 8 MiB).
	MaxBodyBytes int64
	// IngestRate / IngestBurst rate-limit ingested records per second
	// across all sessions; 0 disables (the default).
	IngestRate  float64
	IngestBurst float64
	// RequestTimeout bounds one request's processing (default 30s).
	RequestTimeout time.Duration
	// CompactBytes is the journal size that triggers compaction to
	// header + latest snapshot (default 4 MiB).
	CompactBytes int64
	// TopN bounds each spec report's H2P ranking (default 5).
	TopN int

	// Build constructs a predictor from a spec (default zoo.New); tests
	// inject fault-wrapped builders here.
	Build func(spec string) (predictor.Predictor, error)
	// Now is the clock behind the token bucket and uptime (default
	// time.Now); tests inject a fake for deterministic admission.
	Now func() time.Time
}

func (c Config) withDefaults() (Config, error) {
	if c.Dir == "" {
		dir, err := os.MkdirTemp("", "predserve")
		if err != nil {
			return c, err
		}
		c.Dir = dir
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.MaxResident <= 0 {
		c.MaxResident = 64
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 64
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 4 << 20
	}
	if c.TopN == 0 {
		c.TopN = 5
	}
	if c.Build == nil {
		c.Build = zoo.New
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c, nil
}

// counters is the server's own /varz surface: plain atomics, one word
// per event class, cheap enough to bump on every request.
type counters struct {
	requests        atomic.Int64
	sessionsCreated atomic.Int64
	sessionsDeleted atomic.Int64
	ingested        atomic.Int64
	evictions       atomic.Int64
	restores        atomic.Int64
	rollbacks       atomic.Int64
	overload        atomic.Int64
	panics          atomic.Int64
	snapshotCommits atomic.Int64
	bodyCommits     atomic.Int64
	replayed        atomic.Int64
}

// Server is the prediction service. Create with New, expose via Handler,
// stop with BeginDrain + Close.
type Server struct {
	cfg    Config
	bucket *tokenBucket
	gate   inflightGate
	mux    *http.ServeMux
	start  time.Time
	ctr    counters

	draining atomic.Bool

	mu       sync.Mutex // guards sessions + lru; always AFTER a session lock
	sessions map[string]*session
	lru      *list.List // resident sessions, front = most recently used
}

// New builds a Server, scanning cfg.Dir for journals of previous
// incarnations: every readable journal re-registers its session
// (spilled — state loads on first touch), an unreadable one is
// quarantined aside so the id can live again.
func New(cfg Config) (*Server, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, err
	}
	s := &Server{
		cfg:      cfg,
		bucket:   newTokenBucket(cfg.IngestRate, cfg.IngestBurst, cfg.Now),
		gate:     newInflightGate(cfg.MaxInFlight),
		start:    cfg.Now(),
		sessions: map[string]*session{},
		lru:      list.New(),
	}
	entries, err := os.ReadDir(cfg.Dir)
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".session") {
			continue
		}
		path := filepath.Join(cfg.Dir, name)
		hdr, err := readSessionHeader(path)
		if err != nil {
			quarantine(path)
			continue
		}
		id := strings.TrimSuffix(name, ".session")
		if hdr.ID != id {
			quarantine(path)
			continue
		}
		s.sessions[id] = &session{
			id:      id,
			name:    hdr.Name,
			mu:      make(chan struct{}, 1),
			journal: &sessionJournal{path: path, hdr: hdr},
		}
	}
	s.routes()
	return s, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /varz", s.handleVarz)
	s.mux.Handle("POST /v1/sessions", s.guard(s.handleCreate))
	s.mux.Handle("GET /v1/sessions", s.guard(s.handleList))
	s.mux.Handle("GET /v1/sessions/{id}", s.guard(s.handleReport))
	s.mux.Handle("POST /v1/sessions/{id}/branches", s.guard(s.handleIngest))
	s.mux.Handle("DELETE /v1/sessions/{id}", s.guard(s.handleDelete))
}

// guard is the middleware stack of every /v1 route: panic-to-500, the
// in-flight gate, the per-request deadline, and the body-size cap.
func (s *Server) guard(fn func(http.ResponseWriter, *http.Request)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.ctr.requests.Add(1)
		defer func() {
			if rec := recover(); rec != nil {
				s.ctr.panics.Add(1)
				writeError(w, httpErrorf(http.StatusInternalServerError, "internal error: %v", rec))
			}
		}()
		if !s.gate.tryAcquire() {
			s.ctr.overload.Add(1)
			writeError(w, overloadError("too many requests in flight", time.Second))
			return
		}
		defer s.gate.release()
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)
		if r.Body != nil {
			r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
		}
		fn(w, r)
	})
}

// createRequest is the body of POST /v1/sessions.
type createRequest struct {
	Name  string   `json:"name"`
	Specs []string `json:"specs"`
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, httpErrorf(http.StatusServiceUnavailable, "draining: not accepting new sessions"))
		return
	}
	var req createRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, bodyErrorOrBadJSON(err))
		return
	}
	if len(req.Specs) == 0 {
		writeError(w, httpErrorf(http.StatusBadRequest, "no predictor specs requested"))
		return
	}
	// A full table refuses before any predictor is built or journal
	// created; the check at insert below still decides races.
	s.mu.Lock()
	full := len(s.sessions) >= s.cfg.MaxSessions
	s.mu.Unlock()
	if full {
		s.refuseFull(w)
		return
	}

	// Build every requested spec, admitting the Snapshotter-capable ones
	// and footnoting the rest — per-spec degradation from the first
	// request on. Zero admissible specs is a client error, not a session.
	var admitted []string
	var footnotes []string
	var specs []*specState
	for _, spec := range req.Specs {
		p, err := buildOnce(s.cfg.Build, spec)
		if err != nil {
			footnotes = append(footnotes, fmt.Sprintf("spec %q rejected: %v", spec, err))
			continue
		}
		sp, err := newSpecState(spec, p)
		if err != nil {
			footnotes = append(footnotes, fmt.Sprintf("spec %q rejected: %v", spec, err))
			continue
		}
		admitted = append(admitted, spec)
		specs = append(specs, sp)
	}
	if len(admitted) == 0 {
		writeError(w, httpErrorf(http.StatusBadRequest,
			"no usable predictor specs (%s)", strings.Join(footnotes, "; ")))
		return
	}

	id, err := newSessionID()
	if err != nil {
		writeError(w, err)
		return
	}
	hdr := sessionHeader{ID: id, Name: req.Name, Specs: admitted, Footnotes: footnotes}
	journal, err := createSessionJournal(journalPath(s.cfg.Dir, id), hdr, s.cfg.CompactBytes)
	if err != nil {
		writeError(w, fmt.Errorf("serve: creating session journal: %w", err))
		return
	}
	sess := &session{
		id:        id,
		name:      req.Name,
		mu:        make(chan struct{}, 1),
		resident:  true,
		journal:   journal,
		specs:     specs,
		footnotes: append([]string(nil), footnotes...),
	}

	s.mu.Lock()
	if len(s.sessions) >= s.cfg.MaxSessions {
		s.mu.Unlock()
		journal.remove()
		s.refuseFull(w)
		return
	}
	s.sessions[id] = sess
	sess.lruToken = s.lru.PushFront(sess)
	s.mu.Unlock()
	s.ctr.sessionsCreated.Add(1)

	rep := sess.report(s.cfg.TopN)
	s.enforceResidentCap(sess)
	writeJSON(w, http.StatusCreated, rep)
}

// refuseFull answers a create that would pass MaxSessions.
func (s *Server) refuseFull(w http.ResponseWriter) {
	s.ctr.overload.Add(1)
	writeError(w, overloadError("session table full", 5*time.Second))
}

// sessionSummary is one row of GET /v1/sessions.
type sessionSummary struct {
	ID       string `json:"id"`
	Name     string `json:"name,omitempty"`
	Resident bool   `json:"resident"`
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	out := make([]sessionSummary, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sessionSummary{ID: sess.id, Name: sess.name, Resident: sess.resident})
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(ctx context.Context, sess *session) (any, int, error) {
		return sess.report(s.cfg.TopN), http.StatusOK, nil
	})
}

func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.withSession(w, r, func(ctx context.Context, sess *session) (any, int, error) {
		accepted, err := s.ingest(ctx, sess, r.Body)
		if err != nil {
			return nil, 0, err
		}
		return ingestResult{Accepted: accepted, Report: sess.report(s.cfg.TopN)}, http.StatusOK, nil
	})
}

func (s *Server) handleDelete(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeError(w, httpErrorf(http.StatusNotFound, "no session %q", id))
		return
	}
	if err := sess.lock(r.Context()); err != nil {
		writeError(w, err)
		return
	}
	defer sess.unlock()
	s.mu.Lock()
	delete(s.sessions, id)
	if sess.lruToken != nil {
		s.lru.Remove(sess.lruToken.(*list.Element))
		sess.lruToken = nil
	}
	s.mu.Unlock()
	sess.resident = false
	sess.specs = nil
	sess.journal.remove()
	s.ctr.sessionsDeleted.Add(1)
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

// withSession runs fn with the named session locked and resident,
// touching the LRU and enforcing the resident cap afterwards.
func (s *Server) withSession(w http.ResponseWriter, r *http.Request,
	fn func(ctx context.Context, sess *session) (any, int, error)) {
	id := r.PathValue("id")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		writeError(w, httpErrorf(http.StatusNotFound, "no session %q", id))
		return
	}
	ctx := r.Context()
	if err := sess.lock(ctx); err != nil {
		writeError(w, err)
		return
	}
	v, code, err := func() (any, int, error) {
		defer sess.unlock()
		if err := s.makeResident(sess); err != nil {
			return nil, 0, err
		}
		s.touch(sess)
		return fn(ctx, sess)
	}()
	if err != nil {
		writeError(w, err)
		return
	}
	s.enforceResidentCap(sess)
	writeJSON(w, code, v)
}

// makeResident loads a spilled session from its journal. Caller holds
// the session lock. A journal that cannot be trusted — a typed damage or
// version error — is quarantined and the session unregistered: 410 Gone,
// never guessed-at state. Any other failure is not the file's fault (a
// predictor that will not build, a journal that will not open): the
// session stays registered and spilled, its journal untouched, and the
// client is told to retry.
func (s *Server) makeResident(sess *session) error {
	if sess.resident {
		return nil
	}
	path := sess.journal.path
	if err := s.restore(sess); err != nil {
		if !damaged(err) {
			return &httpError{code: http.StatusServiceUnavailable,
				msg: fmt.Sprintf("session %s not restored: %v", sess.id, err), retryAfter: time.Second}
		}
		quarantine(path)
		s.mu.Lock()
		delete(s.sessions, sess.id)
		s.mu.Unlock()
		return httpErrorf(http.StatusGone, "session %s unrecoverable: %v", sess.id, err)
	}
	sess.resident = true
	s.mu.Lock()
	sess.lruToken = s.lru.PushFront(sess)
	s.mu.Unlock()
	s.ctr.restores.Add(1)
	return nil
}

// dropResident spills a session: journal closed, every byte of in-memory
// state discarded. Caller holds the session lock. This is the one
// transition shared by LRU eviction, rollback-on-error, and the chaos
// suite's Kill — state reloads from the journal (the last snapshot and
// the bodies after it) either way, which is what makes all three safe.
func (s *Server) dropResident(sess *session) {
	if !sess.resident {
		return
	}
	sess.journal.close()
	sess.resident = false
	sess.specs = nil
	sess.sites, sess.footnotes = trace.IDTable{}, nil
	sess.remap, sess.enc = nil, nil
	sess.cursor = 0
	s.mu.Lock()
	if sess.lruToken != nil {
		s.lru.Remove(sess.lruToken.(*list.Element))
		sess.lruToken = nil
	}
	s.mu.Unlock()
}

// touch marks a resident session most recently used.
func (s *Server) touch(sess *session) {
	s.mu.Lock()
	if sess.lruToken != nil {
		s.lru.MoveToFront(sess.lruToken.(*list.Element))
	}
	s.mu.Unlock()
}

// enforceResidentCap spills least-recently-used sessions until the
// resident count fits. It runs with NO session lock held (lock order:
// session before server), locking each victim in turn; current is left
// alone so a request never evicts its own session.
func (s *Server) enforceResidentCap(current *session) {
	for {
		s.mu.Lock()
		if s.lru.Len() <= s.cfg.MaxResident {
			s.mu.Unlock()
			return
		}
		var victim *session
		for e := s.lru.Back(); e != nil; e = e.Prev() {
			if cand := e.Value.(*session); cand != current {
				victim = cand
				break
			}
		}
		s.mu.Unlock()
		if victim == nil {
			return
		}
		// The victim may be mid-request; its lock serializes us behind it.
		// Re-check residency under the lock — it may have been evicted or
		// deleted while we waited.
		victim.mu <- struct{}{}
		if victim.resident {
			s.dropResident(victim)
			s.ctr.evictions.Add(1)
		}
		<-victim.mu
	}
}

// Kill simulates a crash of every resident session: in-memory state is
// dropped WITHOUT a final journal write, exactly as a killed process
// would lose it. The chaos suite uses it to prove that acknowledged
// state — and only acknowledged state — survives.
func (s *Server) Kill() {
	for _, sess := range s.snapshotSessions() {
		sess.mu <- struct{}{}
		s.dropResident(sess)
		<-sess.mu
	}
}

// KillSession crashes one session; see Kill.
func (s *Server) KillSession(id string) bool {
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		return false
	}
	sess.mu <- struct{}{}
	s.dropResident(sess)
	<-sess.mu
	return true
}

// BeginDrain starts a graceful shutdown: /readyz goes unready and new
// sessions are refused, while existing sessions keep serving (their
// state is durable; clients finish or resume elsewhere).
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Close releases every resident session's journal handle. The server
// must not serve requests afterwards.
func (s *Server) Close() error {
	for _, sess := range s.snapshotSessions() {
		sess.mu <- struct{}{}
		s.dropResident(sess)
		<-sess.mu
	}
	return nil
}

func (s *Server) snapshotSessions() []*session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// varzPayload is the /varz document: the server's own counters plus the
// process-wide sim_* expvars (scheduler jobs, injected faults, ...)
// the rest of the runtime already publishes.
type varzPayload struct {
	UptimeSeconds float64                    `json:"uptime_seconds"`
	Server        map[string]int64           `json:"server"`
	Process       map[string]json.RawMessage `json:"process"`
}

func (s *Server) handleVarz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.varz())
}

func (s *Server) varz() varzPayload {
	v := varzPayload{
		UptimeSeconds: s.cfg.Now().Sub(s.start).Seconds(),
		Server: map[string]int64{
			"requests":         s.ctr.requests.Load(),
			"sessions_created": s.ctr.sessionsCreated.Load(),
			"sessions_deleted": s.ctr.sessionsDeleted.Load(),
			"records_ingested": s.ctr.ingested.Load(),
			"evictions":        s.ctr.evictions.Load(),
			"restores":         s.ctr.restores.Load(),
			"rollbacks":        s.ctr.rollbacks.Load(),
			"overload_rejects": s.ctr.overload.Load(),
			"panics_recovered": s.ctr.panics.Load(),
			"snapshot_commits": s.ctr.snapshotCommits.Load(),
			"body_commits":     s.ctr.bodyCommits.Load(),
			"replayed_records": s.ctr.replayed.Load(),
		},
		Process: map[string]json.RawMessage{},
	}
	expvar.Do(func(kv expvar.KeyValue) {
		if strings.HasPrefix(kv.Key, "sim_") {
			v.Process[kv.Key] = json.RawMessage(kv.Value.String())
		}
	})
	return v
}

// newSessionID draws a 64-bit random id, hex-encoded: filesystem- and
// URL-safe, dense enough that collisions within MaxSessions are
// negligible (and caught by the map insert being keyed).
func newSessionID() (string, error) {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "", fmt.Errorf("serve: generating session id: %w", err)
	}
	return hex.EncodeToString(b[:]), nil
}

// bodyErrorOrBadJSON maps a create-body decode failure.
func bodyErrorOrBadJSON(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return httpErrorf(http.StatusRequestEntityTooLarge, "request body over %d bytes", mbe.Limit)
	}
	return httpErrorf(http.StatusBadRequest, "decoding request: %v", err)
}
