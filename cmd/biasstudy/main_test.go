package main

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// TestStudyGshare is the smoke test: the Section 4 study on a tiny
// workload must render every section of the report.
func TestStudyGshare(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-w", "xlisp", "-p", "gshare:i=8,h=8", "-n", "30000"}, &buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"gshare.1PHT(8) on xlisp", "% mispredict",
		"bias breakdown", "dominant", "WB",
		"misprediction by bias class", "bias-class interruptions",
		"most contended counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if !strings.Contains(text, "#") {
		t.Error("output has no rendered bars")
	}
}

func TestStudyBiMode(t *testing.T) {
	var buf bytes.Buffer
	if err := run([]string{"-w", "compress", "-p", "bimode:b=7", "-n", "30000"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "bi-mode(7c,7b,7h) on compress") {
		t.Error("output missing study header")
	}
}

func TestStudyErrors(t *testing.T) {
	cases := [][]string{
		{"-w", "bogus"},
		{"-w", "xlisp", "-p", "bogus"},
		{"-w", "xlisp", "-p", "taken"}, // not a Probe
	}
	for _, args := range cases {
		if err := run(args, io.Discard); err == nil {
			t.Errorf("run(%v) should fail", args)
		}
	}
}
