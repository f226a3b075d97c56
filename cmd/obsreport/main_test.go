package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestObsreportSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "report.json")
	var buf bytes.Buffer
	err := run(context.Background(), []string{"-w", "xlisp,compress", "-p", "bimode:b=8,gshare:i=9;h=9",
		"-n", "20000", "-top", "4", "-o", out}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"bi-mode(8c,8b,8h) on xlisp", "gshare.1PHT(9) on compress",
		"destructive", "neutral", "constructive",
		"choice: agrees with outcome", "hardest branches", "wrote 4 reports",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}

	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var bundle Bundle
	if err := json.Unmarshal(data, &bundle); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(bundle.Reports) != 4 {
		t.Fatalf("got %d reports, want 4", len(bundle.Reports))
	}
	for _, r := range bundle.Reports {
		if r.Branches != 20000 {
			t.Errorf("%s/%s: branches = %d, want 20000", r.Predictor, r.Workload, r.Branches)
		}
		if r.Interference == nil {
			t.Errorf("%s/%s: no interference metrics", r.Predictor, r.Workload)
		}
		if len(r.TopBranches) == 0 || len(r.TopBranches) > 4 {
			t.Errorf("%s/%s: top branches length %d", r.Predictor, r.Workload, len(r.TopBranches))
		}
		if r.BranchesPerSec <= 0 {
			t.Errorf("%s/%s: missing throughput", r.Predictor, r.Workload)
		}
	}
}

func TestObsreportDebugEndpoints(t *testing.T) {
	ln, err := startDebugServer("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()

	// Run something instrumented so the expvar counters are non-zero.
	if err := run(context.Background(), []string{"-w", "sortbench", "-p", "smith:a=8", "-n", "5000"}, io.Discard); err != nil {
		t.Fatal(err)
	}

	get := func(path string) string {
		resp, err := http.Get(fmt.Sprintf("http://%s%s", ln.Addr(), path))
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	vars := get("/debug/vars")
	for _, name := range []string{"sim_observed_runs", "sim_observed_branches", "sim_observed_mispredicts"} {
		if !strings.Contains(vars, name) {
			t.Errorf("/debug/vars missing %s", name)
		}
	}
	var parsed map[string]any
	if err := json.Unmarshal([]byte(vars), &parsed); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if n, ok := parsed["sim_observed_branches"].(float64); !ok || n < 5000 {
		t.Errorf("sim_observed_branches = %v, want >= 5000", parsed["sim_observed_branches"])
	}
	if !strings.Contains(get("/debug/pprof/cmdline"), string(filepath.Separator)) {
		t.Error("/debug/pprof/cmdline returned no path")
	}
}

func TestObsreportErrors(t *testing.T) {
	cases := [][]string{
		{"-w", "bogus-bench"},
		{"-p", "warlock:x=1", "-w", "sortbench", "-n", "1000"},
		{"-p", "", "-w", "sortbench", "-n", "1000"},
		{"-http", "256.0.0.1:bad"},
		{"-bogusflag"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args, io.Discard); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

// TestObsreportDegradedRun pins graceful degradation: reports that
// cannot run (the context is canceled before the grid starts) become
// annotated gaps and a non-zero exit, and the runtime-counters block
// still renders.
func TestObsreportDegradedRun(t *testing.T) {
	var buf bytes.Buffer
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-w", "xlisp", "-p", "bimode:b=8,smith:a=8",
		"-n", "500000"}, &buf)
	if err == nil {
		t.Fatal("degraded run must exit non-zero")
	}
	text := buf.String()
	for _, want := range []string{"did not complete", "[!]", "context canceled",
		"runtime counters:", "sched_cancelled="} {
		if !strings.Contains(text, want) {
			t.Errorf("degraded output missing %q:\n%s", want, text)
		}
	}
}

// TestObsreportCountersBlock: a healthy run surfaces the scheduler
// expvars on the terminal, not just at /debug/vars.
func TestObsreportCountersBlock(t *testing.T) {
	var buf bytes.Buffer
	if err := run(context.Background(), []string{"-w", "sortbench", "-p", "smith:a=8", "-n", "5000"}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"runtime counters:", "sched_jobs_completed=",
		"sched_cancelled="} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}
