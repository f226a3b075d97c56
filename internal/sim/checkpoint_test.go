package sim_test

// Checkpoint/resume tests: the Journal must make a killed suite
// resumable with Result-for-Result identical output, and must never
// trust a checkpoint entry that does not match the live plan.

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	jnl "bimode/internal/journal"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/zoo"
)

// TestKillResumeEquivalence is the headline acceptance test: over the
// full zoo-spec x suite-workload grid, a run killed partway (cancellation
// after a fixed number of completed cells) and then resumed from its
// checkpoint produces exactly the Results — and exactly the rendered
// result lines — of an uninterrupted run.
func TestKillResumeEquivalence(t *testing.T) {
	jobs := oracleJobs(t)
	want := sim.NewScheduler(0).RunAll(jobs)

	path := filepath.Join(t.TempDir(), "suite.ckpt")
	const key = "kill-resume-grid-v1"

	// First run: journaled, canceled after 40 completed cells.
	j1, err := sim.CreateJournal(path, key)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	j1.OnCell = func(seq, idx int, res sim.Result) {
		if completed.Add(1) == 40 {
			cancel()
		}
	}
	partial := sim.NewScheduler(8).WithContext(ctx).WithJournal(j1).RunAll(jobs)
	if err := j1.Close(); err != nil {
		t.Fatalf("closing journal after kill: %v", err)
	}
	sawCancel := false
	for i, r := range partial {
		switch {
		case r.Err == nil:
			if r != want[i] {
				t.Fatalf("partial run cell %d: %+v != reference %+v", i, r, want[i])
			}
		case errors.Is(r.Err, context.Canceled):
			sawCancel = true
		default:
			t.Fatalf("partial run cell %d: unexpected error %v", i, r.Err)
		}
	}
	if !sawCancel {
		t.Fatalf("the kill did not interrupt the run; the resume leg would prove nothing")
	}

	// Resume: the journal must serve the completed cells and the resumed
	// output must be indistinguishable from an uninterrupted run.
	j2, err := sim.ResumeJournal(path, key)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer j2.Close()
	cached := j2.Cells()
	if cached == 0 || cached >= len(jobs) {
		t.Fatalf("journal cached %d cells, want a strict partial of %d", cached, len(jobs))
	}
	var rerun atomic.Int64
	j2.OnCell = func(int, int, sim.Result) { rerun.Add(1) }
	got := sim.NewScheduler(8).WithJournal(j2).RunAll(jobs)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("resumed cell %d: %+v != uninterrupted %+v", i, got[i], want[i])
		}
		if got[i].String() != want[i].String() {
			t.Errorf("resumed cell %d renders differently", i)
		}
	}
	if int(rerun.Load()) != len(jobs)-cached {
		t.Errorf("resume re-ran %d cells, want %d (total %d minus %d cached)",
			rerun.Load(), len(jobs)-cached, len(jobs), cached)
	}
}

// countingSnap wraps a Snapshotter predictor with only the base
// Predict/Update protocol (hiding the inner fast-path capabilities) so a
// test can count exactly how many records a resumed cell simulates, and
// trigger a deterministic mid-cell cancel at a chosen record.
type countingSnap struct {
	inner    predictor.Predictor
	predicts *atomic.Int64
	cancelAt int64
	cancel   context.CancelFunc
}

func (c *countingSnap) Name() string { return c.inner.Name() }
func (c *countingSnap) Predict(pc uint64) bool {
	if n := c.predicts.Add(1); c.cancel != nil && n == c.cancelAt {
		c.cancel()
	}
	return c.inner.Predict(pc)
}
func (c *countingSnap) Update(pc uint64, taken bool) { c.inner.Update(pc, taken) }
func (c *countingSnap) Reset()                       { c.inner.Reset() }
func (c *countingSnap) CostBits() int                { return c.inner.CostBits() }
func (c *countingSnap) Snapshot(dst []byte) []byte {
	return c.inner.(predictor.Snapshotter).Snapshot(dst)
}
func (c *countingSnap) RestoreSnapshot(data []byte) error {
	return c.inner.(predictor.Snapshotter).RestoreSnapshot(data)
}

// TestMidCellPartResume proves the fine-grained leg of checkpointing: a
// cell killed mid-trace resumes from its last journaled part snapshot
// instead of record zero, and still finishes with exactly the
// uninterrupted cell's counts.
func TestMidCellPartResume(t *testing.T) {
	mem := suiteTraces()[0]
	const spec = "bimode:b=11"
	const partEvery = 4096
	want := sim.Run(zoo.MustNew(spec), mem)

	path := filepath.Join(t.TempDir(), "cell.ckpt")
	const key = "mid-cell-v1"
	j1, err := sim.CreateJournal(path, key)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	j1.PartEvery = partEvery
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var firstRun atomic.Int64
	jobs := []sim.Job{{
		Make: func() predictor.Predictor {
			return &countingSnap{
				inner:    zoo.MustNew(spec),
				predicts: &firstRun,
				cancelAt: int64(2*partEvery + 1000),
				cancel:   cancel,
			}
		},
		Source: mem,
	}}
	partial := sim.NewScheduler(0).WithContext(ctx).WithJournal(j1).RunAll(jobs)
	if err := j1.Close(); err != nil {
		t.Fatalf("closing journal: %v", err)
	}
	if !errors.Is(partial[0].Err, context.Canceled) {
		t.Fatalf("first run was not killed mid-cell: %+v", partial[0])
	}

	j2, err := sim.ResumeJournal(path, key)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer j2.Close()
	j2.PartEvery = partEvery
	var resumed atomic.Int64
	jobs[0].Make = func() predictor.Predictor {
		return &countingSnap{inner: zoo.MustNew(spec), predicts: &resumed}
	}
	got := sim.NewScheduler(0).WithJournal(j2).RunAll(jobs)
	if got[0].Err != nil {
		t.Fatalf("resumed cell failed: %v", got[0].Err)
	}
	if got[0] != want {
		t.Fatalf("resumed cell %+v != uninterrupted %+v", got[0], want)
	}
	// The kill landed past the second part boundary, so the resume must
	// have restored a snapshot and skipped at least 2*partEvery records.
	if resumed.Load() >= int64(mem.Len())-2*partEvery {
		t.Errorf("resume simulated %d of %d records; the part snapshot was not used", resumed.Load(), mem.Len())
	}
	if resumed.Load() == 0 {
		t.Errorf("resume simulated nothing; the cell cannot have been journaled as complete")
	}
}

// TestJournalRejectsKeyMismatch: a checkpoint written under one plan key
// must refuse to resume under another.
func TestJournalRejectsKeyMismatch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "k.ckpt")
	j, err := sim.CreateJournal(path, "plan-a")
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := sim.ResumeJournal(path, "plan-b"); err == nil || !strings.Contains(err.Error(), "different run") {
		t.Fatalf("ResumeJournal under wrong key: err %v, want key-mismatch error", err)
	}
}

// TestJournalToleratesTornTrailingLine: a kill mid-write leaves a
// truncated final record; resume must keep every whole record and drop
// only the torn one.
func TestJournalToleratesTornTrailingLine(t *testing.T) {
	mem := suiteTraces()[0]
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	const key = "torn-v1"
	j, err := sim.CreateJournal(path, key)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	jobs := []sim.Job{
		{Make: func() predictor.Predictor { return zoo.MustNew("smith:a=12") }, Source: mem},
		{Make: func() predictor.Predictor { return zoo.MustNew("bimode:b=11") }, Source: mem},
	}
	sim.NewScheduler(0).WithJournal(j).RunAll(jobs)
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatalf("reopening checkpoint: %v", err)
	}
	// A cell record cut mid-payload, as a killed writer leaves it.
	rec := jnl.AppendRecord(nil, []byte("C\x00\x07\x0bsmith(12a)\x08compress"))
	if _, err := f.Write(rec[:len(rec)-8]); err != nil {
		t.Fatalf("appending torn record: %v", err)
	}
	f.Close()

	j2, err := sim.ResumeJournal(path, key)
	if err != nil {
		t.Fatalf("ResumeJournal over torn trailing record: %v", err)
	}
	defer j2.Close()
	if j2.Cells() != 2 {
		t.Fatalf("resumed journal holds %d cells, want 2", j2.Cells())
	}
}

// checkpointHeader is the header record payload of a version-2
// checkpoint under key: 'H', the version, the key.
func checkpointHeader(key string) []byte {
	return jnl.AppendString([]byte{'H', 2}, key)
}

// TestJournalRejectsDamage: a torn header or a torn interior record is
// corruption, not kill residue, and an empty file is not a checkpoint.
func TestJournalRejectsDamage(t *testing.T) {
	const key = "damage-v1"
	header := jnl.AppendRecord(nil, checkpointHeader(key))
	cell := jnl.AppendRecord(nil, []byte("C\x00\x01\x01x\x01y\x00\x00\x00\x00\x00\x00\xf0?\x01\x00"))
	cases := []struct {
		name string
		body []byte
	}{
		{"empty", nil},
		{"torn header", header[:len(header)-3]},
		// A record cut short with a whole one appended after it: the cut
		// record's length runs into its successor and its checksum fails.
		{"torn interior", append(append(append([]byte{}, header...), cell[:len(cell)-6]...), cell...)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.ckpt")
			if err := os.WriteFile(path, tc.body, 0o644); err != nil {
				t.Fatalf("writing fixture: %v", err)
			}
			if _, err := sim.ResumeJournal(path, key); err == nil {
				t.Fatalf("ResumeJournal accepted a damaged checkpoint")
			}
		})
	}
	// The fixture's whole records do resume: the failures above are the
	// damage, not the encoding.
	path := filepath.Join(t.TempDir(), "good.ckpt")
	if err := os.WriteFile(path, append(header, cell...), 0o644); err != nil {
		t.Fatalf("writing fixture: %v", err)
	}
	j, err := sim.ResumeJournal(path, key)
	if err != nil {
		t.Fatalf("ResumeJournal over the undamaged fixture: %v", err)
	}
	if j.Cells() != 1 {
		t.Errorf("undamaged fixture holds %d cells, want 1", j.Cells())
	}
	j.Close()
}

// TestJournalRefusesV1Checkpoint: a JSON-lines checkpoint of an earlier
// build is refused with a version error that says to start afresh,
// never converted.
func TestJournalRefusesV1Checkpoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.ckpt")
	v1 := "{\"v\":1,\"key\":\"legacy\"}\n{\"cell\":{\"seq\":0,\"idx\":0,\"predictor\":\"x\",\"workload\":\"y\",\"cost_bytes\":1,\"branches\":1,\"mispredicts\":0}}\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatalf("writing fixture: %v", err)
	}
	_, err := sim.ResumeJournal(path, "legacy")
	var ve *jnl.VersionError
	if !errors.As(err, &ve) || !strings.Contains(err.Error(), "without -resume") {
		t.Fatalf("ResumeJournal over a v1 checkpoint: err %v, want a version error saying to rerun without -resume", err)
	}
}

// TestJournalBraceLengthKeyResumes: a plan key that makes the header
// record 123 bytes long starts the file with '{', the first byte of a
// JSON-lines checkpoint; it resumes all the same.
func TestJournalBraceLengthKeyResumes(t *testing.T) {
	key := strings.Repeat("k", 123-len(checkpointHeader("")))
	if len(checkpointHeader(key)) != 123 {
		t.Fatalf("header record is %d bytes, want 123", len(checkpointHeader(key)))
	}
	path := filepath.Join(t.TempDir(), "brace.ckpt")
	j, err := sim.CreateJournal(path, key)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	mem := suiteTraces()[0]
	sim.NewScheduler(0).WithJournal(j).RunAll([]sim.Job{{Make: func() predictor.Predictor { return zoo.MustNew("smith:a=12") }, Source: mem}})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if data, err := os.ReadFile(path); err != nil || data[0] != '{' {
		t.Fatalf("the checkpoint does not start with '{' (%v)", err)
	}
	j2, err := sim.ResumeJournal(path, key)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer j2.Close()
	if j2.Cells() != 1 {
		t.Fatalf("resumed checkpoint holds %d cells, want 1", j2.Cells())
	}
}

// TestJournalConcurrentSessions pins the one-writer-per-journal contract
// (DESIGN.md §11): a Journal serializes appends from the worker
// goroutines of ONE scheduler, but nothing coordinates two schedulers
// sharing a file — so concurrent sessions must each own a private
// journal. This test runs several sessions in parallel under -race, each
// with its own journal and its own mid-run kill, then resumes every
// session concurrently and demands per-session results identical to an
// uninterrupted control. Cross-session interference of any kind — shared
// state in the journal layer, cache slots leaking between files —
// surfaces here as a diff or a race report.
func TestJournalConcurrentSessions(t *testing.T) {
	traces := suiteTraces()
	const sessions = 4
	dir := t.TempDir()

	type session struct {
		path string
		key  string
		jobs []sim.Job
		want []sim.Result
	}
	specs := []string{"smith:a=12", "bimode:b=11", "gshare:i=12,h=12", "trimode:b=10"}
	svs := make([]*session, sessions)
	for i := range svs {
		spec := specs[i%len(specs)]
		var jobs []sim.Job
		for _, mem := range traces[:6] {
			mem := mem
			jobs = append(jobs, sim.Job{
				Make:   func() predictor.Predictor { return zoo.MustNew(spec) },
				Source: mem,
			})
		}
		svs[i] = &session{
			path: filepath.Join(dir, spec[:strings.IndexByte(spec, ':')]+".ckpt"),
			key:  "session-" + spec,
			jobs: jobs,
			want: sim.NewScheduler(0).RunAll(jobs),
		}
	}

	// Phase 1: all sessions journal concurrently, each killed after a few
	// completed cells of its own (a per-session OnCell, not a global one).
	var wg sync.WaitGroup
	for _, sv := range svs {
		sv := sv
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := sim.CreateJournal(sv.path, sv.key)
			if err != nil {
				t.Errorf("%s: CreateJournal: %v", sv.key, err)
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var n atomic.Int64
			j.OnCell = func(int, int, sim.Result) {
				if n.Add(1) == 3 {
					cancel()
				}
			}
			sim.NewScheduler(4).WithContext(ctx).WithJournal(j).RunAll(sv.jobs)
			if err := j.Close(); err != nil {
				t.Errorf("%s: Close: %v", sv.key, err)
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Phase 2: all sessions resume concurrently; every one must land on
	// its own uninterrupted results, with at least one cell served from
	// its own cache (proof the right file fed the right session).
	for _, sv := range svs {
		sv := sv
		wg.Add(1)
		go func() {
			defer wg.Done()
			j, err := sim.ResumeJournal(sv.path, sv.key)
			if err != nil {
				t.Errorf("%s: ResumeJournal: %v", sv.key, err)
				return
			}
			defer j.Close()
			if j.Cells() == 0 {
				t.Errorf("%s: resumed journal is empty; the kill leg journaled nothing", sv.key)
				return
			}
			got := sim.NewScheduler(4).WithJournal(j).RunAll(sv.jobs)
			for i := range sv.want {
				if got[i] != sv.want[i] {
					t.Errorf("%s cell %d: resumed %+v != uninterrupted %+v", sv.key, i, got[i], sv.want[i])
				}
			}
		}()
	}
	wg.Wait()
}

// TestJournalIgnoresMismatchedCell: a cached cell whose workload does not
// match the live job is re-run, never served.
func TestJournalIgnoresMismatchedCell(t *testing.T) {
	traces := suiteTraces()
	memA, memB := traces[0], traces[1]
	path := filepath.Join(t.TempDir(), "swap.ckpt")
	const key = "swap-v1"
	j, err := sim.CreateJournal(path, key)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	mk := func() predictor.Predictor { return zoo.MustNew("bimode:b=11") }
	sim.NewScheduler(0).WithJournal(j).RunAll([]sim.Job{{Make: mk, Source: memA}})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// Same key, but the job grid now runs workload B in slot 0: the cached
	// A cell must be ignored and B actually simulated.
	j2, err := sim.ResumeJournal(path, key)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer j2.Close()
	got := sim.NewScheduler(0).WithJournal(j2).RunAll([]sim.Job{{Make: mk, Source: memB}})
	want := sim.Run(mk(), memB)
	if got[0] != want {
		t.Fatalf("mismatched cache slot: got %+v, want freshly simulated %+v", got[0], want)
	}
}
