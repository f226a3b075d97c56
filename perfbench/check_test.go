package main

import (
	"encoding/json"
	"os"
	"testing"
)

// runOnce runs the workload's ops, traced, until at least one has
// finished.
func runOnce(w workload) tally {
	return w.run(func(ops int) bool { return ops >= 1 }, newTracer())
}

func prepared(t *testing.T, w workload) {
	t.Helper()
	if err := w.setup(setupReps-1, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.reference(); err != nil {
		t.Fatal(err)
	}
}

// Every workload's ops pass their checks against an honest reference and
// all fail against a tampered one.
func TestTamperedReferenceFailsOps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	cases := []struct {
		name   string
		make   func(dir string) workload
		tamper func(w workload)
	}{
		{"replay", func(dir string) workload { return newReplay(7, dir, 50000) },
			func(w workload) { w.(*replay).want["gshare:i=12,h=12"]++ }},
		{"replay-observe", func(dir string) workload { return newReplay(7, dir, 50000) },
			func(w workload) { w.(*replay).want[observeSpec]-- }},
		{"paper", func(string) workload { return newPaper(7, censusDynamic) },
			func(w workload) { w.(*paper).want["table2.txt"] += " " }},
		{"serve-text", func(dir string) workload { return newServe(7, dir, textKind, 1) },
			func(w workload) { w.(*serveBench).want[0][1]++ }},
		{"serve-bulk", func(dir string) workload { return newServe(7, dir, bulkKind, 1) },
			func(w workload) { w.(*serveBench).want[0][0]++ }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			w := c.make(t.TempDir())
			defer w.close()
			prepared(t, w)
			if got := runOnce(w); got.attempted == 0 || got.failed != 0 {
				t.Fatalf("honest reference: %d of %d ops failed", got.failed, got.attempted)
			}
			c.tamper(w)
			if got := runOnce(w); got.failed == 0 {
				t.Errorf("tampered reference: none of %d ops failed", got.attempted)
			}
		})
	}
}

func TestBenchmarkJSONListsEveryMetric(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, listed []struct{ Name, Unit string }, units map[string]string) {
		if len(listed) != len(units) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(units))
		}
		for _, m := range listed {
			if units[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q here", kind, m.Name, m.Unit, units[m.Name])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEndUnits)
	same("per_layer", b.PerLayer, perLayerUnits)
	if len(b.Workloads) != len(workloadSpecs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloadSpecs))
	}
	for _, w := range b.Workloads {
		if _, ok := workloadSpecs[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown", w.Name)
		}
	}
}
