package main

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"bimode/internal/trace"
)

// fixture writes a small BMC1 trace to dir and returns its path.
func fixture(t *testing.T, dir string) string {
	t.Helper()
	recs := make([]trace.Record, 300)
	for i := range recs {
		recs[i] = trace.Record{PC: uint64(0x2000 + 8*(i%11)), Static: uint32(i % 11), Taken: i%4 != 0}
	}
	m := trace.NewMemory("fixture", 11, recs)
	path := filepath.Join(dir, "fixture.bmc")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteColumnarBlocks(f, m, 64); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestVerifyDetectsDifferences(t *testing.T) {
	dir := t.TempDir()
	row := fixture(t, dir)
	other := filepath.Join(dir, "other.bmc")
	m := trace.NewMemory("fixture", 11, []trace.Record{{PC: 1, Static: 0, Taken: true}})
	f, err := os.Create(other)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.WriteColumnar(f, m); err != nil {
		t.Fatal(err)
	}
	f.Close()
	var out bytes.Buffer
	if err := run([]string{"verify", row, other}, &out); err == nil {
		t.Fatalf("verify accepted differing traces")
	}
	if err := run([]string{"verify", row, row}, &out); err != nil {
		t.Fatalf("verify of a file against itself: %v", err)
	}
	if !strings.Contains(out.String(), "identical") {
		t.Fatalf("verify output does not say identical: %q", out.String())
	}
}

func TestImportTextCapture(t *testing.T) {
	dir := t.TempDir()
	capture := filepath.Join(dir, "capture.txt")
	lines := "# capture\n0x1000 1\n0x1008,0\n0x1000 t\n"
	if err := os.WriteFile(capture, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	col := filepath.Join(dir, "capture.bmc")
	var out bytes.Buffer
	if err := run([]string{"import", "-name", "cap", "-o", col, capture}, &out); err != nil {
		t.Fatalf("import: %v", err)
	}
	data, err := os.ReadFile(col)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trace.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if m.Name() != "cap" || m.Len() != 3 || m.StaticCount() != 2 {
		t.Fatalf("imported trace shape (%q,%d,%d), want (cap,2,3)", m.Name(), m.StaticCount(), m.Len())
	}
	if err := run([]string{"info", col}, &out); err != nil {
		t.Fatalf("info on imported columnar: %v", err)
	}
	if !strings.Contains(out.String(), "columnar") {
		t.Fatalf("info did not report the columnar layout: %q", out.String())
	}
}

// TestInfoBothFormats: info prints a BMC1 file's block layout, and
// refuses a file in the retired BMT1 row format at its magic.
func TestInfoBothFormats(t *testing.T) {
	dir := t.TempDir()
	col := fixture(t, dir)
	var out bytes.Buffer
	if err := run([]string{"info", col}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "5 blocks of 64") {
		t.Fatalf("info on columnar file lacks block layout: %q", out.String())
	}
	row := filepath.Join(dir, "old.trace")
	if err := os.WriteFile(row, []byte("BMT1\x0b\x01\x07fixture\x02\x80\x40"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run([]string{"info", row}, &out)
	var dec *trace.ColumnarDecodeError
	if !errors.As(err, &dec) || !strings.Contains(err.Error(), "bad magic") {
		t.Fatalf("info on a BMT1 file: %v, want a bad-magic *trace.ColumnarDecodeError", err)
	}
}

func TestErrors(t *testing.T) {
	dir := t.TempDir()
	row := fixture(t, dir)
	var out bytes.Buffer
	cases := [][]string{
		{},
		{"frobnicate"},
		{"convert", "-o", filepath.Join(dir, "x.bmc"), row},
		{"import", "-o", filepath.Join(dir, "x.bmc"), "/nonexistent.txt"},
		{"import", "-format", "varint", "-o", filepath.Join(dir, "x.bmc"), row},
		{"info"},
		{"info", "/nonexistent.trace"},
		{"verify", row},
		{"verify", row, "/nonexistent.trace"},
	}
	for _, args := range cases {
		if err := run(args, &out); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
