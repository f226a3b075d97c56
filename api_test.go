package bimode_test

import (
	"bytes"
	"path/filepath"
	"testing"

	"bimode"
)

func TestQuickstartFlow(t *testing.T) {
	src, err := bimode.Workload("gcc", bimode.WorkloadOptions{Dynamic: 60000})
	if err != nil {
		t.Fatal(err)
	}
	p := bimode.DefaultBiMode(10)
	res := bimode.Run(p, src)
	if res.Branches != 60000 {
		t.Fatalf("branches = %d", res.Branches)
	}
	if r := res.MispredictRate(); r <= 0 || r >= 0.5 {
		t.Fatalf("mispredict rate %v implausible", r)
	}
	if bimode.CostBytes(p) != 3*1024*2/8 {
		t.Fatalf("cost = %v", bimode.CostBytes(p))
	}
}

func TestFacadeSpecAndNames(t *testing.T) {
	if len(bimode.WorkloadNames()) == 0 || len(bimode.PredictorSpecs()) == 0 {
		t.Fatalf("facade listings empty")
	}
	p, err := bimode.NewPredictor("gshare:i=10,h=6")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != "gshare(10i,6h)" {
		t.Fatalf("spec predictor name %q", p.Name())
	}
	if _, err := bimode.NewPredictor("bogus"); err == nil {
		t.Fatalf("bad spec must fail")
	}
	if _, err := bimode.NewBiMode(bimode.BiModeConfig{BankBits: -1}); err == nil {
		t.Fatalf("bad config must fail")
	}
}

func TestFacadeParallelAndStudy(t *testing.T) {
	src := bimode.Materialize(mustWorkload(t, "xlisp", 40000))
	jobs := []bimode.Job{
		{Make: func() bimode.Predictor { return bimode.DefaultBiMode(9) }, Source: src},
		{Make: func() bimode.Predictor { return mustPredictor(t, "smith:a=10") }, Source: src},
	}
	results := bimode.RunAll(jobs)
	if len(results) != 2 || results[0].Branches != 40000 {
		t.Fatalf("parallel run wrong: %+v", results)
	}

	study, err := bimode.RunStudy(bimode.DefaultBiMode(8), src)
	if err != nil {
		t.Fatal(err)
	}
	if study.Branches != 40000 || len(study.Substreams) == 0 {
		t.Fatalf("study incomplete")
	}
}

func mustWorkload(t *testing.T, name string, n int) bimode.Source {
	t.Helper()
	src, err := bimode.Workload(name, bimode.WorkloadOptions{Dynamic: n})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

func mustPredictor(t *testing.T, spec string) bimode.Predictor {
	t.Helper()
	p, err := bimode.NewPredictor(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestFacadeFaultTolerance exercises the fault-tolerant runtime through
// the public facade: the Snapshotter capability and a checkpoint round
// trip that serves a resumed run from cache.
func TestFacadeFaultTolerance(t *testing.T) {
	var _ bimode.Snapshotter = bimode.DefaultBiMode(8)

	src, err := bimode.Workload("xlisp", bimode.WorkloadOptions{Dynamic: 5000})
	if err != nil {
		t.Fatal(err)
	}
	job := func(spec string) bimode.Job {
		return bimode.Job{
			Make: func() bimode.Predictor {
				p, err := bimode.NewPredictor(spec)
				if err != nil {
					panic(err)
				}
				return p
			},
			Source: src,
		}
	}
	jobs := []bimode.Job{job("smith:a=8")}

	path := filepath.Join(t.TempDir(), "facade.ckpt")
	j, err := bimode.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	sched := bimode.NewScheduler(0).WithJournal(j)
	first := sched.RunAll(jobs)
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if first[0].Err != nil {
		t.Fatalf("journaled run failed: %v", first[0].Err)
	}

	j2, err := bimode.ResumeJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Cells() != 1 {
		t.Fatalf("resumed journal caches %d cells, want 1", j2.Cells())
	}
	resumed := bimode.NewScheduler(0).WithJournal(j2).RunAll(jobs)
	if resumed[0] != first[0] {
		t.Errorf("resumed result differs: %+v vs %+v", resumed[0], first[0])
	}
	// A different plan serves the cell it shares and runs the rest: the
	// same results as a fresh run of that plan.
	other := []bimode.Job{job("gshare:i=8,h=8"), jobs[0]}
	fresh := bimode.NewScheduler(0).RunAll(other)
	if got := bimode.NewScheduler(0).WithJournal(j2).RunAll(other); got[0] != fresh[0] || got[1] != fresh[1] {
		t.Errorf("resume under a different plan: %+v, want a fresh run's %+v", got, fresh)
	}
}

func TestFacadeColumnarTrace(t *testing.T) {
	src, err := bimode.Workload("gcc", bimode.WorkloadOptions{Dynamic: 30000})
	if err != nil {
		t.Fatal(err)
	}
	mem := bimode.Materialize(src)
	var buf bytes.Buffer
	if err := bimode.WriteColumnarTrace(&buf, mem); err != nil {
		t.Fatal(err)
	}
	c, err := bimode.OpenColumnarTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	want := bimode.Run(bimode.DefaultBiMode(10), mem)
	got := bimode.Run(bimode.DefaultBiMode(10), c)
	if got != want {
		t.Fatalf("columnar run %+v != materialized run %+v", got, want)
	}
	dec, err := bimode.DecodeTrace(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if res := bimode.Run(bimode.DefaultBiMode(10), dec); res != want {
		t.Fatalf("decoded run %+v != materialized run %+v", res, want)
	}
	if _, err := bimode.OpenColumnarTrace([]byte("not a trace")); err == nil {
		t.Fatal("OpenColumnarTrace accepted garbage")
	}
}
