package main

import (
	"context"
	"expvar"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"bimode/internal/analysis"
	"bimode/internal/experiments"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
)

// paperDynamic is the paper grid's per-workload dynamic branch count,
// before the seed's offset. It keeps one op near a second on two CPUs, so
// a run holds the twenty ops its median needs.
const paperDynamic = 40000

// censusDynamic is the dynamic count of the census op that measures the
// experiments layer in the traced runs of the other workloads.
const censusDynamic = 5000

// paper renders every artifact cmd/paper renders, without the file
// writes, through the scheduler cmd/paper builds.
type paper struct {
	dyn   int
	sched *sim.Scheduler
	want  map[string]string
}

// newPaper returns the paper grid at base+seed%97 branches per workload.
// The suite traces are fixed by their profiles, so the seed picks the
// dynamic count, which changes every trace's length and every cell's
// result.
func newPaper(seed int64, base int) *paper {
	off := seed % 97
	if off < 0 {
		off += 97
	}
	return &paper{
		dyn:   base + int(off),
		sched: sim.NewScheduler(workers).WithContext(context.Background()),
	}
}

func (w *paper) cfg(sched *sim.Scheduler) experiments.Config {
	return experiments.Config{Dynamic: w.dyn, Sched: sched}
}

// setup generates both suites. Suites are memoized process-wide by their
// dynamic count, so each earlier repetition generates at its own count
// and the last generates the count the ops use.
func (w *paper) setup(rep int, tr *tracer) error {
	cfg := w.cfg(w.sched)
	cfg.Dynamic += 128 * (setupReps - 1 - rep)
	tr.do("synth.generate", 0, 0, func() {
		experiments.SuiteSources(synth.SuiteSPEC, cfg)
		experiments.SuiteSources(synth.SuiteIBS, cfg)
	})
	return nil
}

// reference renders the artifacts once on the sequential reference
// scheduler, which every parallel run is proven byte-identical to.
func (w *paper) reference() error {
	var err error
	w.want, err = w.artifacts(sim.NewScheduler(0), nil, 0, 0)
	return err
}

func (w *paper) run(stop func(int) bool, tr *tracer) tally {
	var t tally
	for !stop(len(t.opMS)) {
		op := nextOp()
		jobs0 := jobsCompleted()
		t0 := time.Now()
		id := tr.start("op", 0, op)
		got, err := w.artifacts(w.sched, tr, id, op)
		tr.end(id)
		t.finish(t0, 14*int64(w.dyn))
		t.jobs = append(t.jobs, float64(jobsCompleted()-jobs0))
		t.attempted++
		if err == nil {
			err = sameArtifacts(got, w.want)
		}
		if err != nil {
			t.failed++
			fmt.Fprintln(os.Stderr, "perfbench: paper op:", err)
		}
	}
	return t
}

// jobsCompleted reads the scheduler's sim_sched_jobs_completed expvar.
func jobsCompleted() int64 {
	v := expvar.Get("sim_sched_jobs_completed")
	if v == nil {
		return 0
	}
	n, _ := strconv.ParseInt(v.String(), 10, 64) // the expvar is always an integer
	return n
}

func sameArtifacts(got, want map[string]string) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d artifacts, reference has %d", len(got), len(want))
	}
	for name, w := range want {
		if got[name] != w {
			return fmt.Errorf("artifact %s differs from the reference", name)
		}
	}
	return nil
}

// artifacts runs cmd/paper's generators in its order and returns every
// rendered file by name. Each experiment call is a span named after its
// layer; every render call is an experiments.render span.
func (w *paper) artifacts(sched *sim.Scheduler, tr *tracer, parent, op int) (out map[string]string, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("paper grid panicked: %v", r)
		}
	}()
	cfg := w.cfg(sched)
	out = map[string]string{}
	var fails []string
	render := func(name string, fn func() string) {
		tr.do("experiments.render", parent, op, func() { out[name] = fn() })
	}
	call := func(span string, fn func() error) {
		var e error
		tr.do(span, parent, op, func() { e = fn() })
		if e != nil {
			fails = append(fails, fmt.Sprintf("%s: %v", span, e))
		}
	}

	var t1 []experiments.Table1Row
	call("experiments.table1", func() error { t1 = experiments.Table1(); return nil })
	render("table1.txt", func() string { return experiments.RenderTable1(t1) })
	var t2 []experiments.Table2Row
	call("experiments.table2", func() error { t2 = experiments.Table2(cfg); return nil })
	render("table2.txt", func() string { return experiments.RenderTable2(t2) })

	var f *experiments.Fig234
	call("experiments.figures234", func() error { f = experiments.Figures234(cfg); return nil })
	fails = append(fails, f.Failures...)
	notes := experiments.RenderFootnotes(f.Failures)
	render("figure2.txt", func() string {
		var b strings.Builder
		b.WriteString(experiments.RenderSizeCurves(f.SPECAvg))
		b.WriteString("\n")
		b.WriteString(experiments.RenderSizeCurves(f.IBSAvg))
		b.WriteString("\ngshare.best history bits per size:\n")
		fmt.Fprintf(&b, "  SPEC: %v\n  IBS:  %v\n  (sizes 2^%v counters)\n",
			f.BestHistorySPEC, f.BestHistoryIBS, f.SizeBits)
		fmt.Fprintf(&b, "\ncost advantage of bi-mode over gshare.best at equal accuracy (upper half of axis):\n")
		fmt.Fprintf(&b, "  SPEC: %s   IBS: %s\n",
			formatAdvantage(experiments.CostAdvantage(f.SPECAvg)),
			formatAdvantage(experiments.CostAdvantage(f.IBSAvg)))
		b.WriteString(notes)
		return b.String()
	})
	render("figure2.csv", func() string {
		return experiments.CurvesCSV(append([]experiments.SizeCurves{f.SPECAvg}, f.IBSAvg))
	})
	for _, fig := range []struct {
		name   string
		curves []experiments.SizeCurves
	}{{"figure3", f.SPEC}, {"figure4", f.IBS}} {
		render(fig.name+".txt", func() string {
			var b strings.Builder
			for _, c := range fig.curves {
				b.WriteString(experiments.RenderSizeCurves(c))
				b.WriteString("\n")
			}
			b.WriteString(notes)
			return b.String()
		})
		render(fig.name+".csv", func() string { return experiments.CurvesCSV(fig.curves) })
	}

	var hist, addr, bm experiments.BiasBreakdown
	call("experiments.fig5", func() (e error) { hist, addr, e = experiments.Figure5("gcc", cfg); return })
	render("figure5.txt", func() string {
		return experiments.RenderBreakdown(hist) + "\n" + experiments.RenderBreakdown(addr)
	})
	render("figure5.csv", func() string { return experiments.BreakdownCSV(hist, addr) })
	call("experiments.fig6", func() (e error) { bm, e = experiments.Figure6("gcc", cfg); return })
	render("figure6.txt", func() string { return experiments.RenderBreakdown(bm) })

	var ex analysis.CounterExample
	call("experiments.table3", func() (e error) { ex, e = experiments.Table3("gcc", cfg); return })
	render("table3.txt", func() string { return experiments.RenderTable3(ex) })
	var t4 experiments.Table4Result
	call("experiments.table4", func() (e error) { t4, e = experiments.Table4("gcc", cfg); return })
	render("table4.txt", func() string { return experiments.RenderTable4(t4) })
	fig78 := func(workload, name string) {
		var pts []experiments.ClassBreakdownPoint
		call("analysis.figures78", func() (e error) { pts, e = experiments.Figures78(workload, cfg); return })
		render(name+".txt", func() string { return experiments.RenderFigures78(workload, pts) })
		render(name+".csv", func() string { return experiments.ClassBreakdownCSV(workload, pts) })
	}
	fig78("gcc", "figure7")
	var progs []sim.Result
	call("experiments.programs", func() (e error) { progs, e = experiments.ProgramsCrossCheck(cfg); return })
	render("programs.txt", func() string { return experiments.RenderProgramsCrossCheck(progs) })
	var rows []experiments.ContextSwitchResult
	call("experiments.ctxswitch", func() (e error) { rows, e = experiments.ContextSwitch("gcc", "sdet", 500, cfg); return })
	render("ctxswitch.txt", func() string { return experiments.RenderContextSwitch("gcc", "sdet", 500, rows) })
	var riv [][]experiments.RivalPoint
	call("experiments.rivals", func() error { riv = experiments.Rivals(cfg); return nil })
	render("rivals.txt", func() string { return experiments.RenderRivals(riv) })
	fig78("go", "figure8")

	if len(fails) > 0 {
		sort.Strings(fails)
		return out, fmt.Errorf("%d artifact(s) did not complete: %s", len(fails), strings.Join(fails, "; "))
	}
	return out, nil
}

// formatAdvantage renders a CostAdvantage result as cmd/paper does.
func formatAdvantage(factor float64, lowerBound bool) string {
	if lowerBound {
		return fmt.Sprintf(">= %.2fx", factor)
	}
	return fmt.Sprintf("%.2fx", factor)
}

// layer gives the stage replays the suite's gcc trace.
func (w *paper) layer() layerInput {
	srcs := experiments.SuiteSources(synth.SuiteSPEC, w.cfg(w.sched))
	for _, s := range srcs {
		if s.Name() == "gcc" {
			return layerInput{mem: s.(*trace.Memory), specs: textSpecs, request: textRecords}
		}
	}
	panic("paper: gcc missing from the SPEC suite")
}

func (w *paper) close() {}
