package main

import (
	"bimode/internal/trace"

	"os"
	"path/filepath"
	"testing"
)

func TestGenerateAndInfo(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.trace")
	if err := run([]string{"-w", "verilog", "-n", "10000", "-o", path}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-info", path}); err != nil {
		t.Fatal(err)
	}
}

func TestErrors(t *testing.T) {
	cases := [][]string{
		{},
		{"-w", "verilog"},
		{"-o", "/tmp/x.trace"},
		{"-w", "bogus", "-o", filepath.Join(t.TempDir(), "y.trace")},
		{"-info", "/nonexistent-file.trace"},
		{"-w", "verilog", "-n", "100", "-o", "/nonexistent-dir/zzz/x.trace"},
	}
	for _, args := range cases {
		if err := run(args); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}

func TestProgramWorkloadTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p.trace")
	if err := run([]string{"-w", "lzw", "-n", "5000", "-o", path, "-seed", "9"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-info", path}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONProfileTrace(t *testing.T) {
	dir := t.TempDir()
	prof := filepath.Join(dir, "mine.json")
	if err := os.WriteFile(prof, []byte(`{"name":"mine","statics":200,"dynamic":8000}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "mine.trace")
	if err := run([]string{"-w", prof, "-o", out}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-info", out}); err != nil {
		t.Fatal(err)
	}
	// Invalid profile must fail.
	if err := os.WriteFile(prof, []byte(`{"statics":0}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-w", prof, "-o", out}); err == nil {
		t.Fatalf("invalid profile must fail")
	}
}

func TestColumnarFormat(t *testing.T) {
	dir := t.TempDir()
	def := filepath.Join(dir, "w.bmc")
	small := filepath.Join(dir, "w64.bmc")
	if err := run([]string{"-w", "verilog", "-n", "10000", "-o", def}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-w", "verilog", "-n", "10000", "-block", "64", "-o", small}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-info", small}); err != nil {
		t.Fatal(err)
	}
	// Both files are BMC1 at their block sizes and hold the same trace.
	var mems [2]*trace.Memory
	for i, path := range []string{def, small} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		c, err := trace.OpenColumnar(data)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		if want := []int{trace.DefaultColumnarBlock, 64}[i]; c.BlockSize() != want {
			t.Fatalf("%s: block size %d, want %d", path, c.BlockSize(), want)
		}
		if mems[i], err = trace.Decode(data); err != nil {
			t.Fatal(err)
		}
	}
	ma, mb := mems[0], mems[1]
	if ma.Len() != mb.Len() || ma.Name() != mb.Name() || ma.StaticCount() != mb.StaticCount() {
		t.Fatalf("block sizes disagree: (%q,%d,%d) vs (%q,%d,%d)",
			ma.Name(), ma.StaticCount(), ma.Len(), mb.Name(), mb.StaticCount(), mb.Len())
	}
	for i := range ma.Records() {
		if ma.Records()[i] != mb.Records()[i] {
			t.Fatalf("record %d differs between block sizes", i)
		}
	}
	if err := run([]string{"-w", "verilog", "-n", "100", "-format", "varint", "-o", def}); err == nil {
		t.Fatalf("retired -format flag accepted")
	}
	if err := run([]string{"-w", "verilog", "-n", "100", "-block", "0", "-o", def}); err == nil {
		t.Fatalf("bad block size accepted")
	}
}
