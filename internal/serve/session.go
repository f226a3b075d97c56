package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"bimode/internal/journal"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
)

// A session is one client's long-lived simulation: a site table
// numbering branch PCs with dense static ids, plus one sim.Observer per
// predictor spec, trained incrementally by streamed trace chunks and
// holding every metric behind the spec's report.
//
// Sessions live in two states. Resident: predictors in memory, journal
// open, requests apply directly. Spilled: nothing in memory but the
// header (id, name, admitted specs); the journal on disk holds the
// committed state as its last snapshot plus the request bodies logged
// after it. Eviction is free because every successful ingest is
// journaled, as a body record or a full snapshot, before it is
// acknowledged — eviction just drops memory — and residency is restored
// by reloading the snapshot and replaying those bodies through the same
// applyBody the requests went through. A crash (or Server.Kill, its test
// double) is the same transition taken involuntarily: whatever was in
// memory is gone, and the journal — up to the last acknowledged request
// — is exactly what comes back.
//
// Lock order: session.mu strictly before Server.mu. A session request
// holds session.mu for its duration; Server.mu is taken only for brief
// map/LRU edits. Eviction of OTHER sessions therefore never happens
// while holding any session lock — see Server.enforceResidentCap.
type session struct {
	id   string
	name string

	// Everything below mu is guarded by it.
	mu        chan struct{} // 1-slot semaphore: a mutex tests can TryLock via select
	resident  bool
	journal   *sessionJournal
	specs     []*specState
	footnotes []string
	sites     trace.IDTable // branch PC -> dense static id, in order of first appearance
	cursor    int           // records committed (the durability watermark)

	// Derived state, rebuilt on demand and dropped with the rest: the
	// remap from binary bodies' static ids to session ids (see mapSites)
	// and the buffer each commit encodes its snapshot record, or its
	// body record's head, into.
	remap []uint32
	enc   []byte

	lruToken any // opaque LRU handle owned by the Server, nil when spilled
}

// lock acquires the session, respecting ctx so a request bounded by a
// deadline does not queue forever behind a slow neighbor on the same id.
func (sess *session) lock(ctx context.Context) error {
	select {
	case sess.mu <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctxError(ctx.Err())
	}
}

func (sess *session) unlock() { <-sess.mu }

// specState is one predictor's slice of a session: a live spec's
// observer, or — once a runtime failure disabled the spec — its report,
// frozen at the point of failure.
type specState struct {
	spec   string
	obs    *sim.Observer // nil once failed
	frozen *sim.Report   // the failed spec's full report; nil while live
}

// newSpecState wires a freshly built predictor into an observer. Only
// Snapshotter-capable predictors are admitted — without a snapshot the
// session could not honor its durability contract.
func newSpecState(spec string, p predictor.Predictor) (*specState, error) {
	if _, ok := p.(predictor.Snapshotter); !ok {
		return nil, fmt.Errorf("predictor %q does not support snapshots", p.Name())
	}
	return &specState{spec: spec, obs: sim.NewObserver(p)}, nil
}

// buildOnce constructs a predictor from a spec through the Server's
// Build seam, converting panics to errors (the zoo.New contract already
// does, but the seam is test-injectable). A failure is returned as is:
// construction is a pure function of the spec, so it is never retried.
func buildOnce(build func(string) (predictor.Predictor, error), spec string) (p predictor.Predictor, err error) {
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("serve: building %q: %w", spec, e)
			} else {
				err = fmt.Errorf("serve: building %q: %v", spec, r)
			}
		}
	}()
	return build(spec)
}

// mapSites rewrites a binary body's static ids, which belong to the
// client's capture, into the session's id space, in place. The site
// table is consulted once per distinct site, not once per record: remap
// caches client id -> session id + 1, and an entry is used only when the
// session id's PC is the record's, so a client whose ids are wrong or
// reused costs lookups, never a wrong site. Client ids are untrusted, so
// remap grows only to the largest id seen below limit; ids past it take
// the table every time.
func (sess *session) mapSites(recs []trace.Record, limit int) {
	for i := range recs {
		r := &recs[i]
		id := int(r.Static)
		if id < len(sess.remap) {
			if e := sess.remap[id]; e != 0 && sess.sites.Keys()[e-1] == r.PC {
				r.Static = e - 1
				continue
			}
		}
		r.Static, _ = sess.sites.ID(r.PC)
		if id < limit {
			for id >= len(sess.remap) {
				sess.remap = append(sess.remap, 0)
			}
			sess.remap[id] = r.Static + 1
		}
	}
}

// applyChunk runs one chunk of records, already in the session's id
// space, through every live spec: each spec's observer takes the whole
// chunk, so one spec's runtime failure (caught in feed) cannot corrupt
// another's interleaving.
func (sess *session) applyChunk(recs []trace.Record) {
	for _, sp := range sess.specs {
		if sp.obs != nil {
			sess.feed(sp, recs)
		}
	}
	sess.cursor += len(recs)
}

// feed trains one spec on a chunk. A panic anywhere in the predictor
// disables the spec — its report freezes, a footnote records where and
// why — and the session carries on with its surviving specs: the
// graceful-degradation contract, per spec rather than per request.
func (sess *session) feed(sp *specState, recs []trace.Record) {
	defer func() {
		if r := recover(); r != nil {
			sess.footnotes = append(sess.footnotes, fmt.Sprintf(
				"spec %q disabled at record %d: %v", sp.spec, sp.obs.Branches(), r))
			sp.frozen, sp.obs = sp.obs.Report(math.MaxInt), nil
		}
	}()
	sp.obs.Feed(recs)
}

// restoreState rebuilds the session's in-memory state from a journal
// snapshot (nil = a session that never committed: fresh predictors, zero
// counts). A predictor that will not build is returned as is: the
// journal is not at fault. Any mismatch between the snapshot and freshly
// built predictors means the journal does not describe this server's
// world; that is a *journal.DamageError at the snapshot's record, and
// the session is unrecoverable rather than approximately recovered.
func (s *Server) restoreState(sess *session, snap *sessionSnap) error {
	admitted := sess.specsAdmitted()
	if snap == nil {
		snap = &sessionSnap{Footnotes: sess.journal.hdr.Footnotes, Specs: make([]specSnap, len(admitted))}
		for i, spec := range admitted {
			snap.Specs[i].Spec = spec
		}
	}
	damage := func(format string, args ...any) error {
		return &journal.DamageError{Offset: snap.at, Index: snap.index, Err: fmt.Errorf(format, args...)}
	}
	if len(snap.Specs) != len(admitted) {
		return damage("snapshot has %d specs, session admitted %d", len(snap.Specs), len(admitted))
	}
	specs := make([]*specState, 0, len(admitted))
	for i, ss := range snap.Specs {
		if ss.Spec != admitted[i] {
			return damage("snapshot spec %d is %q, session admitted %q", i, ss.Spec, admitted[i])
		}
		if ss.Frozen != nil {
			// A disabled spec never runs again: its frozen report is all
			// that is left of it.
			specs = append(specs, &specState{spec: ss.Spec, frozen: ss.Frozen})
			continue
		}
		var sp *specState
		p, err := buildOnce(s.cfg.Build, ss.Spec)
		if err == nil {
			sp, err = newSpecState(ss.Spec, p)
		}
		if err != nil {
			return fmt.Errorf("restoring %q: %w", ss.Spec, err)
		}
		if ss.Observer != nil {
			if err := sp.obs.Restore(ss.Observer); err != nil {
				return damage("restoring %q: %w", ss.Spec, err)
			}
		}
		// A live spec has seen every committed record.
		if sp.obs.Branches() != snap.Cursor {
			return damage("spec %q has seen %d records, cursor is %d", ss.Spec, sp.obs.Branches(), snap.Cursor)
		}
		specs = append(specs, sp)
	}
	var sites trace.IDTable
	for _, pc := range snap.PCs {
		if _, fresh := sites.ID(pc); !fresh {
			return damage("snapshot site table repeats a PC")
		}
	}
	sess.sites = sites
	sess.cursor = snap.Cursor
	sess.footnotes = append([]string(nil), snap.Footnotes...)
	sess.specs = specs
	return nil
}

// specsAdmitted returns the session's admitted spec strings (the journal
// header's plan, valid resident or spilled).
func (sess *session) specsAdmitted() []string { return sess.journal.hdr.Specs }

// report assembles the session's current Report. It reads only committed
// state, carries no timing, and is therefore byte-for-byte reproducible
// from the journal alone — the property the kill-and-resume test pins.
func (sess *session) report(topN int) Report {
	rep := Report{
		ID:        sess.id,
		Name:      sess.name,
		Cursor:    sess.cursor,
		Statics:   sess.sites.Len(),
		Footnotes: append([]string(nil), sess.footnotes...),
		Specs:     []SpecReport{},
	}
	for _, sp := range sess.specs {
		r := sp.frozen
		if r == nil {
			r = sp.obs.Report(topN)
		}
		rep.Specs = append(rep.Specs, SpecReport{
			Spec:           sp.spec,
			Predictor:      r.Predictor,
			CostBytes:      r.CostBytes,
			Mispredicts:    r.Mispredicts,
			MispredictRate: r.MispredictRate,
			Failed:         sp.frozen != nil,
			Interference:   r.Interference,
			Choice:         r.Choice,
			// A frozen report holds the full ranking; the ranking is
			// prefix-stable, so its first topN rows are the top-N.
			Top: r.TopBranches[:min(max(topN, 0), len(r.TopBranches))],
		})
	}
	return rep
}

// ingest applies one request body to the session and commits it. The
// body is read whole into a pooled buffer (bounded by MaxBodyBytes, the
// guard's limit), applied through applyBody with the deadline and the
// ingest token bucket checked at every chunk, and committed by journaling
// either the body itself or a full snapshot (sessionJournal.wantsSnapshot).
// Nothing is acknowledged before the journal append returns; on ANY
// error the session's in-memory state is dropped and the journal stands,
// so a failed request rolls back exactly to the previous commit and the
// client retries from the reported cursor.
func (s *Server) ingest(ctx context.Context, sess *session, body io.Reader) (int, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	defer bodyPool.Put(buf)
	buf.Reset()
	start, notes := sess.cursor, len(sess.footnotes)
	var accepted int
	_, err := buf.ReadFrom(body)
	if err != nil {
		err = bodyError(err)
	} else if accepted, err = sess.applyBody(buf.Bytes(), func(n int) error { return s.admit(ctx, n) }); err == nil {
		err = s.commit(sess, buf.Bytes(), start, accepted, len(sess.footnotes) != notes)
	}
	if err != nil {
		s.ctr.rollbacks.Add(1)
		s.dropResident(sess)
		return 0, err
	}
	s.ctr.ingested.Add(int64(accepted))
	return accepted, nil
}

// bodyPool holds the buffers request bodies are read into. One buffer
// serves a request from its first byte to its commit, which logs it
// verbatim when the commit is a body record.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// commit journals an applied request: a body record for the records
// accepted from cursor start on, or a full snapshot when the commit rule
// asks for one.
func (s *Server) commit(sess *session, body []byte, start, accepted int, froze bool) error {
	var err error
	snap := sess.journal.wantsSnapshot(body, froze)
	if snap {
		if sess.enc, err = sess.appendSnap(sess.enc[:0]); err == nil {
			err = sess.journal.appendSnap(sess.enc)
		}
	} else {
		sess.enc = appendBodyHead(sess.enc[:0], start, accepted)
		err = sess.journal.appendBody(sess.enc, body)
	}
	switch {
	case err != nil:
		return fmt.Errorf("serve: committing session %s: %w", sess.id, err)
	case snap:
		s.ctr.snapshotCommits.Add(1)
	default:
		s.ctr.bodyCommits.Add(1)
	}
	return nil
}

// ingestChunk is the unit of admission: deadline and rate are checked
// per chunk, so a huge body cannot blow past either between checks.
const ingestChunk = 4096

// chunkPool holds the buffers text bodies are parsed into, a chunk at a
// time.
var chunkPool = sync.Pool{New: func() any { return new([ingestChunk]trace.Record) }}

// applyBody decodes one request body and applies its records to the
// session in pieces of at most ingestChunk records, calling admit (when
// non-nil) before each piece: live ingest gates every piece, journal
// replay passes nil. It returns the records applied. Formats are sniffed
// from the first bytes: a columnar ("BMC1") body is checked whole by
// OpenColumnar — every block CRC, so a damaged body applies nothing —
// and then decoded block by block into one reused buffer; a body in the
// retired "BMT1" row format is refused whole with a 400 that names BMC1,
// before the text scanner could misread it; anything else is the text
// capture format, parsed in place a record at a time, each PC given its
// id by the site table. A decode failure is a 400; records already
// applied when it surfaces are the caller's to roll back.
func (sess *session) applyBody(body []byte, admit func(n int) error) (int, error) {
	start := sess.cursor
	apply := func(recs []trace.Record) error {
		if len(recs) == 0 {
			return nil
		}
		if admit != nil {
			if err := admit(len(recs)); err != nil {
				return err
			}
		}
		sess.applyChunk(recs)
		return nil
	}
	switch {
	case trace.IsColumnar(body):
		c, err := trace.OpenColumnar(body)
		if err != nil {
			return 0, badBody(err)
		}
		// Each piece's client site ids are mapped into the session's
		// before it applies. The remap may grow to the session's sites
		// plus the body's records: never more than the body's own size.
		limit := sess.sites.Len() + c.Len()
		for bs := c.BlockStream(); ; {
			recs, err := bs.NextBlock()
			if err != nil {
				return 0, badBody(err)
			}
			if recs == nil {
				break
			}
			for len(recs) > 0 {
				k := min(len(recs), ingestChunk)
				sess.mapSites(recs[:k], limit)
				if err := apply(recs[:k]); err != nil {
					return 0, err
				}
				recs = recs[k:]
			}
		}
	case bytes.HasPrefix(body, []byte("BMT1")):
		return 0, httpErrorf(http.StatusBadRequest, "BMT1 trace bodies are no longer accepted: send BMC1")
	default:
		sc := trace.NewTextScannerBytes(body)
		buf := chunkPool.Get().(*[ingestChunk]trace.Record)
		defer chunkPool.Put(buf)
		chunk := buf[:0]
		for {
			pc, taken, ok := sc.Next()
			if !ok {
				break
			}
			st, _ := sess.sites.ID(pc)
			chunk = append(chunk, trace.Record{PC: pc, Static: st, Taken: taken})
			if len(chunk) == ingestChunk {
				if err := apply(chunk); err != nil {
					return 0, err
				}
				chunk = chunk[:0]
			}
		}
		if err := sc.Err(); err != nil {
			return 0, httpErrorf(http.StatusBadRequest, "%v", err)
		}
		if err := apply(chunk); err != nil {
			return 0, err
		}
	}
	return sess.cursor - start, nil
}

// badBody is the 400 of a binary body that does not decode.
func badBody(err error) error {
	return httpErrorf(http.StatusBadRequest, "decoding trace body: %v", err)
}

// admit applies the per-chunk gates of live ingest: the request deadline
// and the shared ingest token bucket.
func (s *Server) admit(ctx context.Context, n int) error {
	if err := ctx.Err(); err != nil {
		return ctxError(err)
	}
	if wait, ok := s.bucket.take(n); !ok {
		s.ctr.overload.Add(1)
		return overloadError("ingest rate", wait)
	}
	return nil
}

// restore makes a spilled session resident from its journal: the last
// snapshot (restoreState), then every body record after it (replay).
func (s *Server) restore(sess *session) error {
	j, snap, bodies, err := openSessionJournal(sess.journal.path, s.cfg.CompactBytes)
	if err != nil {
		return err
	}
	sess.journal = j
	if err = s.restoreState(sess, snap); err == nil {
		err = s.replay(sess, bodies)
	}
	if err != nil {
		j.close()
	}
	return err
}

// replay applies a journal's body records, in order, through applyBody
// with no gates. A body record that does not replay to exactly what its
// writer committed — it fails to decode, starts or ends off its recorded
// cursors, or freezes a spec — is a *journal.DamageError, and the caller
// quarantines the file. Replay takes no context on purpose: the commit
// rule bounds it to about one snapshot's worth of bodies, and it runs to
// the end, so that a deadline can never pass for damage.
func (s *Server) replay(sess *session, bodies []bodyRecord) error {
	for _, b := range bodies {
		if err := sess.replayBody(b); err != nil {
			return &journal.DamageError{Offset: b.at, Index: b.index, Err: err}
		}
		s.ctr.replayed.Add(int64(b.records))
	}
	return nil
}

// replayBody applies one logged body as its commit did.
func (sess *session) replayBody(b bodyRecord) error {
	if sess.cursor != b.cursor {
		return fmt.Errorf("body record starts at cursor %d, session is at %d", b.cursor, sess.cursor)
	}
	notes := len(sess.footnotes)
	n, err := sess.applyBody(b.body, nil)
	switch {
	case err != nil:
		return fmt.Errorf("replaying body record: %w", err)
	case len(sess.footnotes) != notes:
		return fmt.Errorf("replaying body record froze a spec: %s", sess.footnotes[notes])
	case n != b.records:
		return fmt.Errorf("body record replays %d records, its commit applied %d", n, b.records)
	}
	return nil
}

// ctxError maps a context failure to its HTTP rendering: the request's
// deadline elapsed or the client went away; either way the work rolled
// back and the client should retry from the committed cursor.
func ctxError(err error) error {
	return &httpError{code: http.StatusRequestTimeout,
		msg: fmt.Sprintf("request abandoned: %v", err), retryAfter: time.Second}
}

// bodyError maps a failure reading the request body. An over-limit body
// is the client's fault (413); anything else — a cut connection, a slow
// loris that tripped the server's read deadline — is reported as 400
// with the transport error, and the request rolls back.
func bodyError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return httpErrorf(http.StatusRequestEntityTooLarge, "request body over %d bytes", mbe.Limit)
	}
	return httpErrorf(http.StatusBadRequest, "reading request body: %v", err)
}
