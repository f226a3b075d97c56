package serve

// The service chaos suite: seeded fault schedules over concurrent
// clients, asserting the service's robustness contract end to end —
// every session ends cleanly errored or resumable, the committed cursor
// never lies, nothing hangs, and no goroutines leak. CI's service-chaos
// job runs this under -race with BIMODE_CHAOS_SEEDS=100; the default is
// a quick 8-seed smoke (the same knob as internal/faults' chaos suite).

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"bimode/internal/faults"
	"bimode/internal/trace"
)

// chaosSeeds mirrors the seed-matrix knob of internal/faults.
func chaosSeeds(t *testing.T) []int64 {
	t.Helper()
	n := 8
	if env := os.Getenv("BIMODE_CHAOS_SEEDS"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v < 1 {
			t.Fatalf("BIMODE_CHAOS_SEEDS=%q: want a positive integer", env)
		}
		n = v
	}
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(i + 1)
	}
	return seeds
}

// chaosOp enumerates the client behaviors a schedule can draw.
type chaosOp int

const (
	opCleanText chaosOp = iota
	opCleanBinary
	opSlowLoris
	opCutBody
	opCorruptColumnar
	opBadText
	opKillSession
	numChaosOps
)

func (o chaosOp) String() string {
	return [...]string{"text", "binary", "slow-loris", "cut", "corrupt-columnar",
		"bad-text", "kill"}[o]
}

// chaosClient is one concurrent client's world: its own session, its own
// deterministic rng, and its own view of the committed cursor.
type chaosClient struct {
	t        *testing.T
	client   *http.Client
	base     string
	srv      *Server
	rng      *rand.Rand
	recs     []trace.Record
	statics  int
	id       string
	expected int            // records the server has acknowledged
	acked    []trace.Record // those records, in acknowledgment order
	pos      int            // position in recs of the next clean chunk
}

// TestServiceChaos is the tentpole's proof: N concurrent clients per
// schedule, each interleaving clean traffic with injected faults, every
// acknowledged record durable and every fault either cleanly surfaced or
// transparently healed. A final sweep checks the server is still healthy,
// every surviving session still answers, and each one's report equals
// one Observe pass over exactly the records its client had acknowledged.
func TestServiceChaos(t *testing.T) {
	mem := testTrace(t, 4000)
	before := runtime.NumGoroutine()
	for _, seed := range chaosSeeds(t) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			runChaosSchedule(t, seed, mem)
		})
	}
	// Goroutine-leak check: once every schedule's server and client are
	// closed, the count must settle back to the starting baseline (plus
	// slack for the runtime's own background workers).
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		buf := make([]byte, 1<<16)
		t.Fatalf("goroutine leak: %d before chaos, %d after\n%s",
			before, after, buf[:runtime.Stack(buf, true)])
	}
}

func runChaosSchedule(t *testing.T, seed int64, mem *trace.Memory) {
	rng := rand.New(rand.NewSource(seed))

	s, err := New(Config{
		Dir:         t.TempDir(),
		MaxResident: 2, // force heavy eviction churn across clients
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	tr := &http.Transport{}
	client := &http.Client{Transport: tr}
	defer func() {
		ts.Close()
		s.Close()
		tr.CloseIdleConnections()
	}()

	const nClients = 3
	var wg sync.WaitGroup
	clients := make([]*chaosClient, nClients)
	for c := 0; c < nClients; c++ {
		cc := &chaosClient{
			t:       t,
			client:  client,
			base:    ts.URL,
			srv:     s,
			rng:     rand.New(rand.NewSource(seed*1000 + int64(c))),
			recs:    mem.Records(),
			statics: mem.StaticCount(),
		}
		clients[c] = cc
		wg.Add(1)
		go func() {
			defer wg.Done()
			cc.run()
		}()
	}
	wg.Wait()
	_ = rng

	// The server survived its schedule: health intact, every listed
	// session still resumable.
	resp, err := client.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after chaos: %v / %v", resp, err)
	}
	resp.Body.Close()
	var list []sessionSummary
	resp, err = client.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, sum := range list {
		resp, err := client.Get(ts.URL + "/v1/sessions/" + sum.ID)
		if err != nil {
			t.Fatalf("surviving session %s: %v", sum.ID, err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("surviving session %s not resumable: status %d", sum.ID, resp.StatusCode)
		}
	}

	// Every surviving session reports, per live spec, exactly what one
	// Observe pass over the records it acknowledged does: no fault
	// smuggled in, dropped or double-counted a single record.
	for _, cc := range clients {
		if cc.id == "" {
			continue
		}
		resp, err := client.Get(ts.URL + "/v1/sessions/" + cc.id)
		if err != nil {
			t.Fatalf("surviving session %s: %v", cc.id, err)
		}
		var rep Report
		err = json.NewDecoder(resp.Body).Decode(&rep)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("surviving session %s: %v", cc.id, err)
		}
		for _, sr := range rep.Specs {
			if !sr.Failed {
				sameSpecReport(t, sr, referenceSpecReport(sr.Spec, cc.acked, s.cfg.TopN))
			}
		}
	}
}

// run is one client's schedule: create (sometimes with a doomed spec in
// the list), then a fixed number of operations drawn from the fault mix,
// verifying the committed cursor after every single one.
func (c *chaosClient) run() {
	specs := []string{snapSpecs[c.rng.Intn(len(snapSpecs))]}
	if c.rng.Intn(3) == 0 {
		specs = append(specs, "nosuch:x=1") // footnoted away, never fatal
	}
	body, _ := json.Marshal(createRequest{Name: "chaos", Specs: specs})
	resp, err := c.client.Post(c.base+"/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		c.t.Errorf("chaos create: %v", err)
		return
	}
	var rep Report
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		c.t.Errorf("chaos create: status %d: %s", resp.StatusCode, data)
		return
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		c.t.Errorf("chaos create: %v", err)
		return
	}
	c.id = rep.ID

	const ops = 7
	for i := 0; i < ops; i++ {
		op := chaosOp(c.rng.Intn(int(numChaosOps)))
		c.do(op)
		if c.t.Failed() {
			return
		}
		c.verify(op)
		if c.t.Failed() {
			return
		}
	}
	if c.rng.Intn(3) == 0 {
		req, _ := http.NewRequest("DELETE", c.base+"/v1/sessions/"+c.id, nil)
		resp, err := c.client.Do(req)
		if err != nil {
			c.t.Errorf("chaos delete: %v", err)
			return
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			c.t.Errorf("chaos delete: status %d", resp.StatusCode)
		}
		c.id = ""
	}
}

// chunk carves the next clean slice off the client's trace, wrapping.
func (c *chaosClient) chunk() []trace.Record {
	n := 100 + c.rng.Intn(500)
	if c.pos+n > len(c.recs) {
		c.pos = 0
	}
	out := c.recs[c.pos : c.pos+n]
	c.pos += n
	return out
}

// post sends one ingest body and returns the status (0 on transport
// error, which several fault classes legitimately produce client-side).
func (c *chaosClient) post(body io.Reader) (int, string) {
	resp, err := c.client.Post(c.base+"/v1/sessions/"+c.id+"/branches", "text/plain", body)
	if err != nil {
		return 0, err.Error()
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, string(data)
}

func (c *chaosClient) do(op chaosOp) {
	switch op {
	case opCleanText:
		recs := c.chunk()
		status, body := c.post(strings.NewReader(textBody(recs)))
		if status != http.StatusOK {
			c.t.Errorf("%v: status %d: %s", op, status, body)
			return
		}
		c.ack(recs)

	case opCleanBinary:
		recs := c.chunk()
		var buf bytes.Buffer
		if err := trace.WriteColumnar(&buf, trace.NewMemory("chaos", c.statics, recs)); err != nil {
			c.t.Errorf("%v: encoding: %v", op, err)
			return
		}
		status, body := c.post(&buf)
		if status != http.StatusOK {
			c.t.Errorf("%v: status %d: %s", op, status, body)
			return
		}
		c.ack(recs)

	case opSlowLoris:
		// A dribbling but complete body must succeed, just slowly.
		recs := c.chunk()[:50]
		slow := faults.SlowReader(context.Background(), strings.NewReader(textBody(recs)), 16, 100*time.Microsecond)
		status, body := c.post(slow)
		if status != http.StatusOK {
			c.t.Errorf("%v: status %d: %s", op, status, body)
			return
		}
		c.ack(recs)

	case opCutBody:
		// The connection drops mid-body: the client sees a transport
		// error, the server a truncated stream. Nothing commits.
		text := textBody(c.chunk())
		cut := faults.CutReader(strings.NewReader(text), len(text)/2)
		status, _ := c.post(cut)
		if status == http.StatusOK {
			c.t.Errorf("%v: truncated body was accepted", op)
		}

	case opCorruptColumnar:
		recs := c.chunk()
		var buf bytes.Buffer
		if err := trace.WriteColumnar(&buf, trace.NewMemory("chaos", c.statics, recs)); err != nil {
			c.t.Errorf("%v: encoding: %v", op, err)
			return
		}
		flipped := faults.FlipByte(buf.Bytes(), int64(c.rng.Intn(1<<20)))
		status, body := c.post(bytes.NewReader(flipped))
		if status != http.StatusBadRequest {
			c.t.Errorf("%v: status %d (want 400): %s", op, status, body)
		}

	case opBadText:
		status, body := c.post(strings.NewReader("0x10 1\n0x20 sideways\n"))
		if status != http.StatusBadRequest {
			c.t.Errorf("%v: status %d (want 400): %s", op, status, body)
		}

	case opKillSession:
		if !c.srv.KillSession(c.id) {
			c.t.Errorf("%v: session %s vanished", op, c.id)
		}
	}
}

// ack records a successful ingest of recs.
func (c *chaosClient) ack(recs []trace.Record) {
	c.expected += len(recs)
	c.acked = append(c.acked, recs...)
}

// verify asserts the one invariant every operation must preserve: the
// session reports exactly the acknowledged cursor — faults neither
// destroy committed records nor smuggle in uncommitted ones.
func (c *chaosClient) verify(op chaosOp) {
	resp, err := c.client.Get(c.base + "/v1/sessions/" + c.id)
	if err != nil {
		c.t.Errorf("after %v: report: %v", op, err)
		return
	}
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		c.t.Errorf("after %v: report status %d: %s", op, resp.StatusCode, data)
		return
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		c.t.Errorf("after %v: report decode: %v", op, err)
		return
	}
	if rep.Cursor != c.expected {
		c.t.Errorf("after %v: cursor %d, want %d acknowledged", op, rep.Cursor, c.expected)
	}
	for _, sr := range rep.Specs {
		if sr.Failed {
			c.t.Errorf("after %v: spec %q failed without an injected predictor fault", op, sr.Spec)
		}
	}
}
