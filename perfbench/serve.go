package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"bimode/internal/serve"
	"bimode/internal/sim"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

type serveKind int

const (
	textKind serveKind = iota // text capture bodies
	bulkKind                  // BMC1 bodies
)

var (
	// textSpecs and textRecords are a serve-text session's specs and one
	// request's records (the service's ingestChunk).
	textSpecs   = []string{"bimode:b=11", "gshare:i=12,h=12"}
	textRecords = 4096
	// bulkSpecs and bulkRecords are serve-bulk's: bi-mode at the top of
	// Figure 2's size axis, so every ACK journals a large snapshot.
	bulkSpecs   = []string{"bimode:b=16"}
	bulkRecords = 65536
)

// sessionBodies is how many ingests one session sends.
const sessionBodies = 16

// servePool is how many distinct session traces a run generates; session
// i replays trace i mod servePool.
const servePool = 4

// serveBench is a closed loop of clients against an in-process
// serve.Server over loopback: each session creates, ingests its bodies
// one ACK at a time, reads its report, and deletes itself.
type serveBench struct {
	seed   int64
	dir    string
	kind   serveKind
	pool   int
	specs  []string
	per    int
	recs   []*trace.Memory // per pool entry: the session's records
	bodies [][][]byte      // per pool entry: its request bodies
	want   [][]int         // per pool entry: mispredicts per spec

	journals string
	srv      *serve.Server
	hs       *http.Server
	served   chan error
	base     string
	client   *http.Client
	next     atomic.Int64 // sessions started
}

func newServe(seed int64, dir string, kind serveKind, pool int) *serveBench {
	b := &serveBench{seed: seed, dir: dir, kind: kind, pool: pool, specs: textSpecs, per: textRecords}
	if kind == bulkKind {
		b.specs, b.per = bulkSpecs, bulkRecords
	}
	return b
}

// setup generates the session traces, renders their request bodies and
// starts a fresh server with the default Config on a fresh journal
// directory.
func (b *serveBench) setup(rep int, tr *tracer) error {
	b.recs, b.bodies = nil, nil
	tr.do("synth.generate", 0, 0, func() {
		for j := 0; j < b.pool; j++ {
			b.recs = append(b.recs, gccTrace(b.seed*1000+int64(j), sessionBodies*b.per))
		}
	})
	for _, mem := range b.recs {
		var bodies [][]byte
		all := mem.Records()
		for i := 0; i < sessionBodies; i++ {
			part := all[i*b.per : (i+1)*b.per]
			body, err := b.encode(mem, part)
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
		}
		b.bodies = append(b.bodies, bodies)
	}
	b.journals = filepath.Join(b.dir, fmt.Sprintf("journals-%d", rep))
	srv, err := serve.New(serve.Config{Dir: b.journals})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	b.srv = srv
	b.hs = &http.Server{Handler: srv.Handler()}
	b.served = make(chan error, 1)
	go func() { b.served <- b.hs.Serve(ln) }()
	b.base = "http://" + ln.Addr().String()
	b.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers},
		Timeout:   2 * time.Minute,
	}
	return nil
}

// encode renders one request body in the workload's format.
func (b *serveBench) encode(mem *trace.Memory, recs []trace.Record) ([]byte, error) {
	if b.kind == textKind {
		return textBody(recs), nil
	}
	var buf bytes.Buffer
	err := trace.WriteColumnar(&buf, trace.NewMemory(mem.Name(), mem.StaticCount(), recs))
	return buf.Bytes(), err
}

// textBody renders records in the text capture format predload sends.
func textBody(recs []trace.Record) []byte {
	var sb strings.Builder
	for _, r := range recs {
		dir := "0"
		if r.Taken {
			dir = "1"
		}
		fmt.Fprintf(&sb, "0x%x %s\n", r.PC, dir)
	}
	return []byte(sb.String())
}

// reference runs sim.Run over each session trace: a session that
// acknowledged all its bodies must report exactly these counts.
func (b *serveBench) reference() error {
	b.want = nil
	for _, mem := range b.recs {
		var w []int
		for _, spec := range b.specs {
			p, err := zoo.New(spec)
			if err != nil {
				return err
			}
			w = append(w, sim.Run(p, mem).Mispredicts)
		}
		b.want = append(b.want, w)
	}
	return nil
}

func (b *serveBench) run(stop func(int) bool, tr *tracer) tally {
	v0, err0 := b.varz()
	var ops atomic.Int64
	parts := make([]tally, workers)
	var wg sync.WaitGroup
	for c := range parts {
		wg.Add(1)
		go func(t *tally) {
			defer wg.Done()
			for !stop(int(ops.Load())) {
				j := int(b.next.Add(1)-1) % b.pool
				b.session(j, t, &ops, tr)
			}
		}(&parts[c])
	}
	wg.Wait()
	var t tally
	for _, p := range parts {
		t.merge(p)
	}
	if v1, err := b.varz(); err0 == nil && err == nil {
		t.overload = v1["overload_rejects"] - v0["overload_rejects"]
		t.rollbacks = v1["rollbacks"] - v0["rollbacks"]
	}
	return t
}

// session runs one session's requests, counting every request as an
// attempted op and every failed request or failed check as a failed one.
// A session whose ingest fails is abandoned: its report could no longer be
// checked against the whole trace.
func (b *serveBench) session(j int, t *tally, ops *atomic.Int64, tr *tracer) {
	req := func(span, method, path string, body []byte, want int, out any) (time.Duration, bool) {
		op := nextOp()
		t.attempted++
		id := tr.start(span, 0, op)
		d, err := b.do(method, path, body, want, out)
		tr.end(id)
		if err != nil {
			t.failed++
			fmt.Fprintln(os.Stderr, "perfbench: serve request:", err)
			return d, false
		}
		return d, true
	}
	create, _ := json.Marshal(map[string]any{"name": "perfbench", "specs": b.specs})
	var created serve.Report
	if _, ok := req("serve.create", "POST", "/v1/sessions", create, http.StatusCreated, &created); !ok {
		return
	}
	path := "/v1/sessions/" + created.ID
	jpath := filepath.Join(b.journals, created.ID+".session")
	defer req("serve.delete", "DELETE", path, nil, http.StatusOK, nil)
	for _, body := range b.bodies[j] {
		before := 0.0
		if tr != nil {
			before = fileKB(jpath)
		}
		var ack struct {
			Accepted int `json:"accepted"`
		}
		t0 := time.Now()
		_, ok := req("op", "POST", path+"/branches", body, http.StatusOK, &ack)
		ops.Add(1)
		if ok && ack.Accepted != b.per {
			t.failed++
			fmt.Fprintf(os.Stderr, "perfbench: ingest accepted %d of %d records\n", ack.Accepted, b.per)
			ok = false
		}
		if !ok {
			t.finish(t0, 0)
			return
		}
		t.finish(t0, int64(ack.Accepted))
		if tr != nil {
			t.journalKB = append(t.journalKB, fileKB(jpath)-before)
		}
	}
	var rep serve.Report
	d, ok := req("serve.read", "GET", path, nil, http.StatusOK, &rep)
	if !ok {
		return
	}
	t.readMS = append(t.readMS, ms(d))
	if err := b.checkReport(j, rep); err != nil {
		t.failed++
		fmt.Fprintln(os.Stderr, "perfbench: serve report:", err)
	}
}

func (b *serveBench) checkReport(j int, rep serve.Report) error {
	if len(rep.Specs) != len(b.specs) || len(rep.Footnotes) > 0 {
		return fmt.Errorf("report has %d specs and footnotes %v", len(rep.Specs), rep.Footnotes)
	}
	for k, sr := range rep.Specs {
		if err := check(sr.Spec, rep.Cursor, int(sr.Mispredicts), b.recs[j].Len(), b.want[j][k]); err != nil {
			return err
		}
	}
	return nil
}

// fileKB returns the file's size in KB, 0 when it cannot be read.
func fileKB(path string) float64 {
	fi, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return float64(fi.Size()) / 1024
}

// do sends one request and decodes a JSON response into out.
func (b *serveBench) do(method, path string, body []byte, want int, out any) (time.Duration, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, b.base+path, rd)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	resp, err := b.client.Do(req)
	if err != nil {
		return time.Since(t0), err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	if resp.StatusCode != want {
		return d, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return d, fmt.Errorf("%s %s: %w", method, path, err)
		}
	}
	return d, nil
}

// varz returns the server's /varz counters.
func (b *serveBench) varz() (map[string]int64, error) {
	var v struct {
		Server map[string]int64 `json:"server"`
	}
	_, err := b.do("GET", "/varz", nil, http.StatusOK, &v)
	return v.Server, err
}

func (b *serveBench) layer() layerInput {
	return layerInput{mem: b.recs[0], specs: b.specs, request: b.per}
}

// close stops the server and waits for its serve loop to end.
func (b *serveBench) close() {
	if b.hs == nil {
		return
	}
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = b.hs.Shutdown(ctx) // a connection still open after the grace period is closed below
	_ = b.hs.Close()
	if err := <-b.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(os.Stderr, "perfbench: serve loop:", err)
	}
	b.srv.Close()
	b.hs = nil
	os.RemoveAll(b.journals)
}
