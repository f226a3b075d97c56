package sim_test

// Checkpoint/resume tests: the Journal must make a killed suite
// resumable with Result-for-Result identical output, and must never
// serve a checkpoint entry for a cell other than the live one.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"bimode/internal/experiments"
	jnl "bimode/internal/journal"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
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

	// First run: journaled, canceled after 40 completed cells.
	j1, err := sim.CreateJournal(path)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	j1.OnCell = func(sim.Result) {
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
	j2, err := sim.ResumeJournal(path)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer j2.Close()
	cached := j2.Cells()
	if cached == 0 || cached >= len(jobs) {
		t.Fatalf("journal cached %d cells, want a strict partial of %d", cached, len(jobs))
	}
	var rerun atomic.Int64
	j2.OnCell = func(sim.Result) { rerun.Add(1) }
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

// journalThenResume journals one job, then resumes the checkpoint and
// runs another: the second run's Result and the first's.
func journalThenResume(t *testing.T, first, second sim.Job) (got, journaled sim.Result) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cell.ckpt")
	j, err := sim.CreateJournal(path)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	journaled = sim.NewScheduler(0).WithJournal(j).RunAll([]sim.Job{first})[0]
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j2, err := sim.ResumeJournal(path)
	if err != nil {
		t.Fatalf("ResumeJournal: %v", err)
	}
	defer j2.Close()
	if j2.Cells() != 1 {
		t.Fatalf("resumed checkpoint holds %d cells, want 1", j2.Cells())
	}
	return sim.NewScheduler(0).WithJournal(j2).RunAll([]sim.Job{second})[0], journaled
}

// TestJournalNeverServesOtherPredictor: a checkpoint holding a bi-mode
// cell, resumed by a plan that runs gshare in the same slot on the same
// trace, must simulate gshare, not serve bi-mode's result.
func TestJournalNeverServesOtherPredictor(t *testing.T) {
	mem := suiteTraces()[0]
	job := func(spec string) sim.Job {
		return sim.Job{Make: func() predictor.Predictor { return zoo.MustNew(spec) }, Source: mem}
	}
	got, journaled := journalThenResume(t, job("bimode:b=11"), job("gshare:i=12,h=12"))
	want := sim.Run(zoo.MustNew("gshare:i=12,h=12"), mem)
	if journaled.Mispredicts == want.Mispredicts {
		t.Fatalf("bi-mode and gshare agree on %s; the test cannot tell them apart", mem.Name())
	}
	if got != want {
		t.Fatalf("resumed gshare cell %+v, want %+v", got, want)
	}
}

// TestJournalNeverServesOtherTrace: a checkpoint holding a cell on one
// trace, resumed by a plan whose trace has the same workload name and
// length but other records (another seed), must simulate the new trace.
func TestJournalNeverServesOtherTrace(t *testing.T) {
	prof := synth.Profiles()[0].WithDynamic(fastpathDynamic)
	memA := trace.Materialize(synth.MustWorkload(prof))
	memB := trace.Materialize(synth.MustWorkload(prof.WithSeed(prof.Seed + 1)))
	if memA.Name() != memB.Name() || memA.Len() != memB.Len() {
		t.Fatalf("traces differ in name or length: %s/%d vs %s/%d", memA.Name(), memA.Len(), memB.Name(), memB.Len())
	}
	mk := func() predictor.Predictor { return zoo.MustNew("bimode:b=11") }
	got, journaled := journalThenResume(t, sim.Job{Make: mk, Source: memA}, sim.Job{Make: mk, Source: memB})
	want := sim.Run(mk(), memB)
	if journaled == want {
		t.Fatalf("the two seeds give identical results; the test cannot tell them apart")
	}
	if got != want {
		t.Fatalf("resumed cell on the other trace %+v, want %+v", got, want)
	}
}

// TestJournalToleratesTornTrailingLine: a kill mid-write leaves a
// truncated final record; resume must keep every whole record and drop
// only the torn one.
func TestJournalToleratesTornTrailingLine(t *testing.T) {
	mem := suiteTraces()[0]
	path := filepath.Join(t.TempDir(), "torn.ckpt")
	j, err := sim.CreateJournal(path)
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
	rec := jnl.AppendRecord(nil, []byte("C\x0asmith(12a)\x08compress"))
	if _, err := f.Write(rec[:len(rec)-8]); err != nil {
		t.Fatalf("appending torn record: %v", err)
	}
	f.Close()

	j2, err := sim.ResumeJournal(path)
	if err != nil {
		t.Fatalf("ResumeJournal over torn trailing record: %v", err)
	}
	defer j2.Close()
	if j2.Cells() != 2 {
		t.Fatalf("resumed journal holds %d cells, want 2", j2.Cells())
	}
}

// TestJournalRejectsDamage: a torn header or a torn interior record is
// corruption, not kill residue, and an empty file is not a checkpoint.
func TestJournalRejectsDamage(t *testing.T) {
	header := jnl.AppendRecord(nil, []byte{'H', byte(sim.JournalVersion)})
	// A cell: predictor "x", workload "y", one record, checksum, no
	// mispredicts.
	cell := jnl.AppendRecord(nil, []byte("C\x01x\x01y\x01\x00\x00\x00\x00\x00\x00\x00\x00\x00"))
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
			if _, err := sim.ResumeJournal(path); err == nil {
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
	j, err := sim.ResumeJournal(path)
	if err != nil {
		t.Fatalf("ResumeJournal over the undamaged fixture: %v", err)
	}
	if j.Cells() != 1 {
		t.Errorf("undamaged fixture holds %d cells, want 1", j.Cells())
	}
	j.Close()
}

// TestJournalRefusesV1Checkpoint: checkpoints of earlier builds — the
// JSON lines of version 1, the position-keyed cells of version 2, the
// cells and mid-cell snapshot parts of version 3 — are refused with a
// version error that says to start afresh, never converted.
func TestJournalRefusesV1Checkpoint(t *testing.T) {
	v1 := "{\"v\":1,\"key\":\"legacy\"}\n{\"cell\":{\"seq\":0,\"idx\":0,\"predictor\":\"x\",\"workload\":\"y\",\"cost_bytes\":1,\"branches\":1,\"mispredicts\":0}}\n"
	// Version 2: a header with the plan key, then a cell keyed by
	// (seq, idx).
	v2 := append(jnl.AppendRecord(nil, jnl.AppendString([]byte{'H', 2}, "legacy")),
		jnl.AppendRecord(nil, []byte("C\x00\x01\x01x\x01y\x00\x00\x00\x00\x00\x00\xf0?\x01\x00"))...)
	// Version 3: a header, a cell keyed by identity, and a part of
	// another cell: the key, cursor 4096, 100 mispredicts and a snapshot
	// blob.
	key := func(pred string) []byte {
		return append(jnl.AppendString(jnl.AppendString(nil, pred), "y"), 0x80, 0x40, 0, 0, 0, 0, 0, 0, 0, 0)
	}
	part := append(append([]byte{'P'}, key("z")...), 0x80, 0x20, 100)
	part = jnl.AppendBlob(part, func(dst []byte) []byte { return append(dst, "snapshot"...) })
	v3body := jnl.AppendRecord(jnl.AppendRecord(nil, append(append([]byte{'C'}, key("x")...), 7)), part)
	v3 := append(jnl.AppendRecord(nil, []byte{'H', 3}), v3body...)
	for name, data := range map[string][]byte{"v1": []byte(v1), "v2": v2, "v3": v3} {
		path := filepath.Join(t.TempDir(), name+".ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatalf("writing fixture: %v", err)
		}
		_, err := sim.ResumeJournal(path)
		var ve *jnl.VersionError
		if !errors.As(err, &ve) || !strings.Contains(err.Error(), "without -resume") {
			t.Fatalf("ResumeJournal over a %s checkpoint: err %v, want a version error saying to rerun without -resume", name, err)
		}
	}
	// The version 3 records under a current header: the part is not a
	// record this version knows, so the file is damaged at the part's
	// record (index 2), not skipped past.
	path := filepath.Join(t.TempDir(), "v4-part.ckpt")
	data := append(jnl.AppendRecord(nil, []byte{'H', byte(sim.JournalVersion)}), v3body...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("writing fixture: %v", err)
	}
	_, err := sim.ResumeJournal(path)
	var de *jnl.DamageError
	var ve *jnl.VersionError
	if !errors.As(err, &de) || de.Index != 2 || errors.As(err, &ve) {
		t.Fatalf("ResumeJournal over a part record under a version %d header: err %v, want damage at record 2", sim.JournalVersion, err)
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
			j, err := sim.CreateJournal(sv.path)
			if err != nil {
				t.Errorf("%s: CreateJournal: %v", sv.key, err)
				return
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			var n atomic.Int64
			j.OnCell = func(sim.Result) {
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
			j, err := sim.ResumeJournal(sv.path)
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
	j, err := sim.CreateJournal(path)
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	mk := func() predictor.Predictor { return zoo.MustNew("bimode:b=11") }
	sim.NewScheduler(0).WithJournal(j).RunAll([]sim.Job{{Make: mk, Source: memA}})
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// The job grid now runs workload B in slot 0: the cached A cell must
	// be ignored and B actually simulated.
	j2, err := sim.ResumeJournal(path)
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

// TestCellIdentityInjective: a journaled cell names its predictor by
// Name, so predictors that share a Name must be one configuration. Over
// every zoo example and every example with one parameter changed,
// predictors sharing a Name must run a trace to the same Result (cost
// included) and, if they can be snapshotted, the same final state. Over
// every predictor the experiment drivers build, a run sharing one
// journal (as cmd/paper does) must equal a run without one: a cell
// identity two of them shared would serve one's result as the other's.
func TestCellIdentityInjective(t *testing.T) {
	mem := suiteTraces()[0]
	type probe struct {
		spec string
		res  sim.Result
		snap []byte
	}
	byName := map[string]probe{}
	check := func(spec string) {
		p, err := zoo.New(spec)
		if err != nil {
			return // the change left the parameter's valid range
		}
		got := probe{spec: spec, res: sim.Run(p, mem)}
		if sn, ok := p.(predictor.Snapshotter); ok {
			got.snap = sn.Snapshot(nil)
		}
		prev, ok := byName[got.res.Predictor]
		if !ok {
			byName[got.res.Predictor] = got
			return
		}
		if prev.res != got.res || !bytes.Equal(prev.snap, got.snap) {
			t.Errorf("%s and %s share the name %q but differ: %+v vs %+v", prev.spec, spec, got.res.Predictor, prev.res, got.res)
		}
	}
	for _, spec := range zoo.Known() {
		check(spec)
		family, opts, _ := strings.Cut(spec, ":")
		if opts == "" {
			continue
		}
		kvs := strings.Split(opts, ",")
		for i, kv := range kvs {
			key, val, _ := strings.Cut(kv, "=")
			n, err := strconv.Atoi(val)
			if err != nil {
				t.Fatalf("%s: option %q: %v", spec, kv, err)
			}
			if n > 1 {
				n--
			} else {
				n++
			}
			changed := append([]string(nil), kvs...)
			changed[i] = key + "=" + strconv.Itoa(n)
			check(family + ":" + strings.Join(changed, ","))
		}
	}

	cfg := experiments.Config{Dynamic: 4000, MinSizeBits: 8, MaxSizeBits: 9, Sched: sim.NewScheduler(0)}
	drivers := func(cfg experiments.Config) []any {
		programs, err := experiments.ProgramsCrossCheck(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ctx, err := experiments.ContextSwitch("gcc", "sdet", 500, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return []any{experiments.Figures234(cfg), experiments.Rivals(cfg), programs, ctx}
	}
	want := drivers(cfg)
	j, err := sim.CreateJournal(filepath.Join(t.TempDir(), "drivers.ckpt"))
	if err != nil {
		t.Fatalf("CreateJournal: %v", err)
	}
	defer j.Close()
	cfg.Sched = cfg.Sched.WithJournal(j)
	if got := drivers(cfg); !reflect.DeepEqual(got, want) {
		t.Errorf("the experiment drivers sharing a journal differ from a run without one")
	}
}

// behaviourDigests pins, per journalVersion, the digest of every zoo
// example's Result over one short suite trace. A journaled cell is only
// as good as the build that computed it, so a change to any predictor's
// behaviour must come with a new version. Version 4 changed only the
// record schema (no more mid-cell parts), so its digest is version 3's.
// Version 5 changed no result: gselect, now built as GAs, reports GAs's
// name, and the digest hashes names.
var behaviourDigests = map[int]string{
	3: "ed2aa236f9525b29ff6fd0a5b0580f004d96775a56a30275ca0d3dcfa5522fc5",
	4: "ed2aa236f9525b29ff6fd0a5b0580f004d96775a56a30275ca0d3dcfa5522fc5",
	5: "8b83c69db85982235fa6132f0077b14209dc80671b9c7a54bb705677f03e3a49",
}

// TestJournalVersionPinsBehaviour: the zoo's behaviour digest must be the
// one committed for the current journalVersion.
func TestJournalVersionPinsBehaviour(t *testing.T) {
	mem := suiteTraces()[0]
	h := sha256.New()
	for _, spec := range zoo.Known() {
		r := sim.Run(zoo.MustNew(spec), mem)
		fmt.Fprintf(h, "%s|%s|%v|%d|%d\n", r.Predictor, r.Workload, r.CostBytes, r.Branches, r.Mispredicts)
	}
	got := hex.EncodeToString(h.Sum(nil))
	if want, ok := behaviourDigests[sim.JournalVersion]; !ok || got != want {
		t.Fatalf("journalVersion %d: behaviour digest %s, committed %q; a predictor's behaviour changed: bump journalVersion and add its digest",
			sim.JournalVersion, got, want)
	}
}
