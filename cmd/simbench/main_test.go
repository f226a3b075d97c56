package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestSimbenchSmoke(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "bench.json")
	err := run([]string{"-o", out, "-n", "20000", "-reps", "1",
		"-specs", "bimode:b=8,gshare:i=10;h=10"})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var rep Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("got %d results, want 2", len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.GenericBranchesPerSec <= 0 || r.BatchedBranchesPerSec <= 0 {
			t.Errorf("%s: non-positive throughput: %+v", r.Spec, r)
		}
		if r.Branches != 6*20000 {
			t.Errorf("%s: branches = %d, want %d (6 SPEC workloads x 20000)", r.Spec, r.Branches, 6*20000)
		}
		if r.Mispredicts <= 0 || r.Mispredicts >= r.Branches {
			t.Errorf("%s: implausible mispredict count %d", r.Spec, r.Mispredicts)
		}
	}
	if len(rep.Workloads) != 6 {
		t.Errorf("got %d workloads, want 6", len(rep.Workloads))
	}
}

func TestSimbenchErrors(t *testing.T) {
	if err := run([]string{"-n", "0"}); err == nil {
		t.Error("expected error for -n 0")
	}
	if err := run([]string{"-specs", "nosuch:x=1", "-n", "1000"}); err == nil {
		t.Error("expected error for unknown spec")
	}
	if err := run([]string{"-bogusflag"}); err == nil {
		t.Error("expected flag parse error")
	}
	if err := run([]string{"-tol", "1.5", "-n", "1000"}); err == nil {
		t.Error("expected error for out-of-range -tol")
	}
	if err := run([]string{"-against", "no-such-baseline.json",
		"-specs", "smith:a=8", "-n", "1000", "-reps", "1",
		"-o", filepath.Join(t.TempDir(), "bench.json")}); err == nil {
		t.Error("expected error for missing baseline file")
	}
}

// TestGuardAgainst exercises the CI regression guard directly: ratios at
// or above the geomean floor pass, suite-wide drops beyond tol fail, a
// single collapsed spec fails even when the geomean survives, and
// degenerate baselines (no overlap, unreadable, malformed) fail loudly
// rather than vacuously passing.
func TestGuardAgainst(t *testing.T) {
	dir := t.TempDir()
	writeBase := func(name string, rep Report) string {
		t.Helper()
		path := filepath.Join(dir, name)
		data, err := json.Marshal(rep)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := writeBase("base.json", Report{Results: []Result{
		{Spec: "bimode:b=8", Speedup: 2.0},
		{Spec: "smith:a=10", Speedup: 1.5},
	}})

	cases := []struct {
		name    string
		fresh   []Result
		tol     float64
		wantErr bool
	}{
		{"unchanged", []Result{{Spec: "bimode:b=8", Speedup: 2.0}, {Spec: "smith:a=10", Speedup: 1.5}}, 0.05, false},
		{"within tol", []Result{{Spec: "bimode:b=8", Speedup: 1.91}}, 0.05, false},
		{"improved", []Result{{Spec: "smith:a=10", Speedup: 3.0}}, 0.05, false},
		{"suite-wide regression", []Result{{Spec: "bimode:b=8", Speedup: 1.7}}, 0.05, true},
		{"one of two regressed", []Result{{Spec: "bimode:b=8", Speedup: 2.0}, {Spec: "smith:a=10", Speedup: 1.0}}, 0.05, true},
		{"single collapse, geomean ok", []Result{{Spec: "bimode:b=8", Speedup: 3.2}, {Spec: "smith:a=10", Speedup: 0.75}}, 0.15, true},
		{"zero tol exact", []Result{{Spec: "bimode:b=8", Speedup: 2.0}}, 0, false},
		{"unknown specs only", []Result{{Spec: "other:x=1", Speedup: 9.0}}, 0.05, true},
	}
	for _, tc := range cases {
		err := guardAgainst(base, Report{Results: tc.fresh}, tc.tol)
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: guardAgainst err = %v, wantErr %v", tc.name, err, tc.wantErr)
		}
	}

	if err := guardAgainst(filepath.Join(dir, "absent.json"), Report{Results: cases[0].fresh}, 0.05); err == nil {
		t.Error("missing baseline file should fail")
	}
	badPath := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(badPath, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := guardAgainst(badPath, Report{Results: cases[0].fresh}, 0.05); err == nil {
		t.Error("malformed baseline should fail")
	}
}

// TestSimbenchGuardEndToEnd runs a tiny measurement, then re-runs it in
// guard mode against its own output with a generous tolerance — the shape
// CI uses against the committed BENCH_sim.json.
func TestSimbenchGuardEndToEnd(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.json")
	if err := run([]string{"-o", base, "-n", "5000", "-reps", "1", "-specs", "smith:a=10"}); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"-o", filepath.Join(dir, "fresh.json"), "-n", "5000", "-reps", "1",
		"-specs", "smith:a=10", "-against", base, "-tol", "0.95"})
	if err != nil {
		t.Fatalf("guard run failed: %v", err)
	}
}
