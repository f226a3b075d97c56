package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSweepBasic is the smoke test: a tiny synthetic sweep must produce a
// well-formed table — every selected scheme header, one row per workload,
// an AVERAGE row, and parseable in-range rates.
func TestSweepBasic(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-w", "xlisp,compress", "-schemes", "gshare1,bimode,smith",
		"-min", "8", "-max", "9", "-n", "20000"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if text == "" {
		t.Fatal("no output")
	}
	for _, want := range []string{"gshare.1PHT", "bi-mode", "smith", "xlisp", "compress", "AVERAGE"} {
		if c := strings.Count(text, want); c == 0 {
			t.Errorf("output missing %q", want)
		}
	}
	if c := strings.Count(text, "AVERAGE"); c != 3 {
		t.Errorf("got %d AVERAGE rows, want one per scheme (3)", c)
	}
	// Every AVERAGE row carries one rate per swept size, each in (0,100).
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "AVERAGE") {
			continue
		}
		fields := strings.Fields(line)[1:]
		if len(fields) != 2 {
			t.Fatalf("AVERAGE row has %d rates, want 2: %q", len(fields), line)
		}
		for _, f := range fields {
			v, err := strconv.ParseFloat(f, 64)
			if err != nil || v <= 0 || v >= 100 {
				t.Errorf("implausible rate %q in %q (err %v)", f, line, err)
			}
		}
	}
}

func TestSweepBest(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-w", "xlisp", "-schemes", "gsharebest", "-min", "8", "-max", "8", "-n", "20000"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "gshare.best") {
		t.Error("output missing gshare.best header")
	}
}

func TestSweepRivals(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-w", "lzw", "-schemes", "agree,gskew,yags,gag,pag",
		"-min", "8", "-max", "8", "-n", "20000"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"agree", "e-gskew", "yags", "GAg", "PAg"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestSweepErrors(t *testing.T) {
	cases := [][]string{
		{"-w", "bogus-bench", "-min", "8", "-max", "8"},
		{"-schemes", "warlock", "-min", "8", "-max", "8"},
		{"-min", "12", "-max", "8"},
		{"-min", "2", "-max", "30"},
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestSweepCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "sweep.ckpt")
	args := []string{"-w", "xlisp", "-schemes", "bimode,smith",
		"-min", "8", "-max", "9", "-n", "20000", "-checkpoint", ckpt}
	var first, resumed bytes.Buffer
	if err := run(args, &first); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if err := run(append(args[:len(args):len(args)], "-resume"), &resumed); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if first.String() != resumed.String() {
		t.Errorf("resumed output differs from the original run:\n%s\nvs\n%s", first.String(), resumed.String())
	}
	// A different size axis is a different plan: the resume serves the
	// cells it shares with the checkpoint and runs the rest, printing
	// exactly what a fresh run of that plan prints.
	var other, fresh bytes.Buffer
	if err := run(append(args[:len(args):len(args)], "-max", "10", "-resume"), &other); err != nil {
		t.Fatalf("resume under a different plan: %v", err)
	}
	if err := run(append(args[:len(args)-2:len(args)-2], "-max", "10"), &fresh); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if other.String() != fresh.String() {
		t.Errorf("resume under a different plan printed:\n%s\nwant a fresh run's:\n%s", other.String(), fresh.String())
	}
}
