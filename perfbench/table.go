package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// run is one saved benchmark output: the detail line and the result line.
type savedRun struct {
	detail detail
	result result
}

// readRun parses a saved output: the last two JSON lines of the file.
func readRun(path string) (savedRun, error) {
	var r savedRun
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	var lines []string
	sc := bufio.NewScanner(strings.NewReader(string(data)))
	for sc.Scan() {
		if l := strings.TrimSpace(sc.Text()); strings.HasPrefix(l, "{") {
			lines = append(lines, l)
		}
	}
	if len(lines) < 2 {
		return r, fmt.Errorf("%s: want a detail line and a result line", path)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &r.detail); err != nil {
		return r, fmt.Errorf("%s: detail: %w", path, err)
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r.result); err != nil {
		return r, fmt.Errorf("%s: result: %w", path, err)
	}
	return r, nil
}

// writeTable renders saved runs as markdown: one row per workload of the
// untraced runs, each figure the median over that workload's runs with,
// in parentheses, the run-to-run spread (quartile distance over median)
// where there are several, then a per-layer table with a column per
// workload from the traced runs.
func writeTable(w io.Writer, paths []string) error {
	byWorkload := map[string][]savedRun{}
	traced := map[string][]savedRun{}
	for _, p := range paths {
		r, err := readRun(p)
		if err != nil {
			return err
		}
		if r.detail.Trace {
			traced[r.detail.Workload] = append(traced[r.detail.Workload], r)
		} else {
			byWorkload[r.detail.Workload] = append(byWorkload[r.detail.Workload], r)
		}
	}
	fmt.Fprintln(w, "| Workload | Runs | Samples | Throughput | P50 | P90 | P99 | CPU/op | Set-up CPU | Set-up wall | Peak RSS | OK | Notes |")
	fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|---|---|---|---|---|")
	for _, name := range sortedKeys(byWorkload) {
		runs := byWorkload[name]
		col := func(metric string) string { return figure(runs, metric) }
		samples := 0
		var p50, mrec, p90, p99, setupWall []float64
		for _, r := range runs {
			samples += r.detail.Samples
			p50 = append(p50, r.detail.OpP50MS)
			mrec = append(mrec, r.detail.MrecS)
			setupWall = append(setupWall, r.detail.SetupWallS)
			if r.detail.P90MS > 0 {
				p90 = append(p90, r.detail.P90MS)
			}
			if r.detail.P99MS > 0 {
				p99 = append(p99, r.detail.P99MS)
			}
		}
		fmt.Fprintf(w, "| **%s** | %d | %d ops | %s Mrec/s | %s ms | %s | %s | %s ms | %s s | %s s | %s MB | %s | %s |\n",
			name, len(runs), samples, figureOf(mrec), figureOf(p50), withUnit(p90, "ms"), withUnit(p99, "ms"),
			col("cpu_ms_per_op"), col("setup_s"), figureOf(setupWall), col("peak_rss_mb"), col("ok_ratio"), runs[0].detail.Notes)
	}
	if len(traced) == 0 {
		return nil
	}
	names := sortedKeys(traced)
	fmt.Fprintf(w, "\n| Per layer (traced runs) | Unit | %s |\n|---|---|%s\n",
		strings.Join(names, " | "), strings.Repeat("---|", len(names)))
	for _, metric := range sortedKeys(perLayerUnits) {
		row := []string{metric, perLayerUnits[metric]}
		for _, name := range names {
			row = append(row, figure(traced[name], metric))
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(row, " | "))
	}
	return nil
}

// figure renders the median of a metric over runs, with its spread when
// there are at least two.
func figure(runs []savedRun, metric string) string {
	var xs []float64
	for _, r := range runs {
		if m, ok := r.result.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return figureOf(xs)
}

// withUnit renders figureOf(xs) followed by unit, or "--" for no values.
func withUnit(xs []float64, unit string) string {
	if len(xs) == 0 {
		return "--"
	}
	return figureOf(xs) + " " + unit
}

func figureOf(xs []float64) string {
	if len(xs) == 0 {
		return "--"
	}
	if len(xs) < 2 {
		return fmt.Sprintf("%.4g", median(xs))
	}
	return fmt.Sprintf("%.4g (%.2f)", median(xs), spread(xs))
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
