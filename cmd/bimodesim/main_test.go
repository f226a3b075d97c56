package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"bimode/internal/synth"
	"bimode/internal/trace"
)

func TestRunList(t *testing.T) {
	if err := run(context.Background(), []string{"-list"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunBasic(t *testing.T) {
	err := run(context.Background(), []string{"-w", "xlisp", "-p", "bimode:b=8;smith:a=9", "-n", "20000"})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	cases := [][]string{
		{"-w", "unknown-bench", "-n", "1000"},
		{"-w", "xlisp", "-p", "martian:x=1"},
		{"-w", "", "-p", "smith:a=4"},
		{"-w", "xlisp", "-p", ""},
		{"-w", "@/nonexistent.trace"},
		{"-badflag"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestRunFromTraceFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.trace")
	// Generate a trace with tracegen's machinery by writing one directly.
	if err := run(context.Background(), []string{"-w", "compress", "-n", "5000", "-p", "smith:a=6"}); err != nil {
		t.Fatal(err)
	}
	// Write a real trace file via the trace package by shelling through
	// the tracegen flow is out of scope here; instead assert that a
	// malformed file errors cleanly.
	if err := os.WriteFile(path, []byte("BMT1 garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-w", "@" + path, "-p", "smith:a=6"}); err == nil {
		t.Fatalf("malformed trace must fail")
	}
}

// TestRunFromColumnarTraceFile checks that -w @file reads a BMC1 trace:
// the gcc workload saved to a file prints what the generated workload
// prints.
func TestRunFromColumnarTraceFile(t *testing.T) {
	dir := t.TempDir()
	p, _ := synth.ProfileByName("gcc")
	m := trace.Materialize(synth.MustWorkload(p.WithDynamic(20000)))
	var buf bytes.Buffer
	if err := trace.WriteColumnar(&buf, m); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.bmc")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	got := stdout(t, []string{"-w", "@" + path, "-p", "bimode:b=10"})
	want := stdout(t, []string{"-w", "gcc", "-n", "20000", "-p", "bimode:b=10"})
	if got == "" || got != want {
		t.Errorf("BMC1 file printed:\n%s\nwant the generated workload's:\n%s", got, want)
	}
}

func TestRunWithJSONProfile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "mine.json")
	profile := `{"name": "mine", "statics": 300, "dynamic": 15000, "frac_loop": 0.2, "frac_weak": 0.1}`
	if err := os.WriteFile(path, []byte(profile), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-w", path, "-p", "bimode:b=8"}); err != nil {
		t.Fatal(err)
	}
	// Malformed profile must fail cleanly.
	if err := os.WriteFile(path, []byte(`{"statics": 0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-w", path, "-p", "bimode:b=8"}); err == nil {
		t.Fatalf("invalid profile must fail")
	}
	if err := run(context.Background(), []string{"-w", filepath.Join(dir, "missing.json")}); err == nil {
		t.Fatalf("missing profile file must fail")
	}
}

func TestRunCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "run.ckpt")
	args := []string{"-w", "xlisp,compress", "-p", "bimode:b=8;smith:a=9", "-n", "20000", "-checkpoint", ckpt}
	if err := run(context.Background(), args); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	// A resume of a completed run serves every cell from cache and
	// succeeds without re-simulating.
	if err := run(context.Background(), append(args[:len(args):len(args)], "-resume")); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	// A resume under a different plan (another predictor set) serves the
	// cells it shares with the checkpoint and runs the rest, printing
	// exactly what a fresh run of that plan prints.
	other := []string{"-w", "xlisp,compress", "-p", "smith:a=4;bimode:b=8", "-n", "20000"}
	got := stdout(t, append(other[:len(other):len(other)], "-checkpoint", ckpt, "-resume"))
	if want := stdout(t, other); got != want {
		t.Errorf("resume under a different plan printed:\n%s\nwant a fresh run's:\n%s", got, want)
	}
}

// stdout returns what run(args) prints, failing the test if it errs.
func stdout(t *testing.T, args []string) string {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	saved := os.Stdout
	os.Stdout = f
	err = run(context.Background(), args)
	os.Stdout = saved
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
