package main

import (
	"context"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"bimode/internal/experiments"
	"bimode/internal/synth"
)

func TestPaperSubset(t *testing.T) {
	dir := t.TempDir()
	err := run(context.Background(), []string{"-out", dir, "-only", "table1,table2,table3,table4,fig5,fig6,fig7,fig8", "-n", "30000"})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"table1.txt", "table2.txt", "table3.txt", "table4.txt",
		"figure5.txt", "figure6.txt", "figure7.txt", "figure8.txt"} {
		if _, err := os.Stat(filepath.Join(dir, f)); err != nil {
			t.Errorf("missing output %s: %v", f, err)
		}
	}
}

func TestPaperFig2Small(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep")
	}
	dir := t.TempDir()
	if err := run(context.Background(), []string{"-out", dir, "-only", "fig2", "-n", "15000"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "figure2.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) == 0 {
		t.Fatalf("empty csv")
	}
}

func TestPaperErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-badflag"}); err == nil {
		t.Fatalf("bad flag must fail")
	}
	if err := run(context.Background(), []string{"-out", "/dev/null/impossible"}); err == nil {
		t.Fatalf("bad output dir must fail")
	}
}

// TestPaperDegradedRun pins graceful degradation: under an
// already-canceled context no simulation can complete, so the affected
// artifacts become annotated footnotes, the artifacts that need no
// simulation are still produced, and the exit status is non-zero.
func TestPaperDegradedRun(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := run(ctx, []string{"-out", dir, "-only", "table1,fig2", "-n", "400000"})
	if err == nil {
		t.Fatal("degraded run must exit non-zero")
	}
	if _, err := os.Stat(filepath.Join(dir, "table1.txt")); err != nil {
		t.Errorf("unaffected artifact missing: %v", err)
	}
	notes, err := os.ReadFile(filepath.Join(dir, "footnotes.txt"))
	if err != nil {
		t.Fatalf("degraded run wrote no footnotes.txt: %v", err)
	}
	if !strings.Contains(string(notes), "figures2-4") {
		t.Errorf("footnotes.txt does not name the failed artifact:\n%s", notes)
	}
}

// TestPaperRivalsGapsFail: when the rivals cells fail (here under an
// already-canceled context, over a warm suite memo so the workloads
// exist), rivals.txt is still written, with gaps in place of the suite
// averages, and the artifact counts as failed in footnotes.txt and the
// exit status.
func TestPaperRivalsGapsFail(t *testing.T) {
	const dynamic = 1300
	for _, suite := range []string{synth.SuiteSPEC, synth.SuiteIBS} {
		experiments.SuiteSources(suite, experiments.Config{Dynamic: dynamic})
	}
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := run(ctx, []string{"-out", dir, "-only", "rivals", "-n", strconv.Itoa(dynamic)}); err == nil {
		t.Fatal("a rivals run with failed cells must exit non-zero")
	}
	text, err := os.ReadFile(filepath.Join(dir, "rivals.txt"))
	if err != nil {
		t.Fatalf("rivals.txt missing: %v", err)
	}
	if !strings.Contains(string(text), "--@") || strings.Contains(string(text), "0.00@") {
		t.Errorf("failed averages must render as gaps:\n%s", text)
	}
	notes, err := os.ReadFile(filepath.Join(dir, "footnotes.txt"))
	if err != nil {
		t.Fatalf("no footnotes.txt: %v", err)
	}
	if !strings.Contains(string(notes), "rivals") {
		t.Errorf("footnotes.txt does not name the rivals artifact:\n%s", notes)
	}
}

func TestPaperCheckpointResume(t *testing.T) {
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "paper.ckpt")
	out := func(name string) string { return filepath.Join(dir, name) }
	args := []string{"-only", "programs", "-n", "25000", "-checkpoint", ckpt}
	if err := run(context.Background(), append([]string{"-out", out("first")}, args...)); err != nil {
		t.Fatalf("checkpointed run: %v", err)
	}
	if err := run(context.Background(), append([]string{"-out", out("resumed")}, append(args, "-resume")...)); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	if got, want := artifacts(t, out("resumed")), artifacts(t, out("first")); got != want {
		t.Errorf("resumed artifacts differ from the original run:\n%s\nvs\n%s", got, want)
	}
	// A different plan serves the cells it shares with the checkpoint and
	// runs the rest: exactly what a fresh run of that plan emits.
	other := []string{"-only", "programs,ctxswitch", "-n", "25000"}
	if err := run(context.Background(), append([]string{"-out", out("other")}, append(other, "-checkpoint", ckpt, "-resume")...)); err != nil {
		t.Fatalf("resume under a different plan: %v", err)
	}
	if err := run(context.Background(), append([]string{"-out", out("fresh")}, other...)); err != nil {
		t.Fatalf("fresh run: %v", err)
	}
	if got, want := artifacts(t, out("other")), artifacts(t, out("fresh")); got != want {
		t.Errorf("resume under a different plan emitted:\n%s\nwant a fresh run's:\n%s", got, want)
	}
}

// artifacts concatenates the files a run wrote to dir, in name order.
func artifacts(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString("==== " + e.Name() + " ====\n")
		b.Write(data)
	}
	return b.String()
}
