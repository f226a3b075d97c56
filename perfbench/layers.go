package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bimode"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// layerInput is what the stage replays of a traced run work on: the
// workload's own record trace, and the session specs and request size of
// the serve path.
type layerInput struct {
	mem     *trace.Memory
	specs   []string
	request int
}

// stageReps is how many times the traced run replays each stage.
const stageReps = 5

// interleaveSpec is the smallest bi-mode geometry whose packed tables
// reach the lockstep kernel's 256 KB gate (1<<choice + 1<<bank >= 1<<18).
const interleaveSpec = "bimode:b=17"

// stages replays each layer's public entry point over in, reps times, one
// span per call under a "stage" root. It returns how many stage calls it
// made and how many failed their check.
func stages(in layerInput, dir string, reps int, tr *tracer) (attempted, failed int, err error) {
	mem := in.mem
	n := mem.Len()
	recs := mem.Records()
	path := filepath.Join(dir, "layer.bmc")
	if err := writeColumnarFile(path, mem); err != nil {
		return 0, 0, err
	}
	text := textBody(recs[:min(textRecords, n)])
	var bulk bytes.Buffer
	if err := trace.WriteColumnar(&bulk, trace.NewMemory(mem.Name(), mem.StaticCount(), recs[:min(bulkRecords, n)])); err != nil {
		return 0, 0, err
	}
	req := recs[:min(in.request, n)]
	jobs := make([]sim.Job, 4)
	for i := range jobs {
		jobs[i] = sim.Job{Make: func() predictor.Predictor { return zoo.MustNew(interleaveSpec) }, Source: mem}
	}
	ctx := context.Background()

	expect := func(what string, ok bool) {
		attempted++
		if !ok {
			failed++
			fmt.Fprintf(os.Stderr, "perfbench: stage check failed: %s\n", what)
		}
	}
	for r := 0; r < reps; r++ {
		op := nextOp()
		root := tr.start("stage", 0, op)
		var c *trace.Columnar
		var oerr error
		tr.do("trace.open", root, op, func() { c, oerr = trace.OpenColumnarFile(path) })
		if oerr != nil {
			tr.end(root)
			return attempted, failed, oerr
		}
		decoded := 0
		tr.do("trace.decode", root, op, func() {
			bs := c.BlockStream()
			for {
				blk, err := bs.NextBlock()
				if err != nil || blk == nil {
					oerr = err
					return
				}
				decoded += len(blk)
			}
		})
		expect("decode", oerr == nil && decoded == n)
		var pass, batch sim.Result
		tr.do("sim.columnar_pass", root, op, func() { pass = sim.Run(zoo.MustNew("bimode:b=11"), c) })
		tr.do("sim.batch", root, op, func() { batch = sim.Run(zoo.MustNew("bimode:b=11"), mem) })
		expect("columnar pass", pass == batch && batch.Branches == n)
		tr.do("sim.step", root, op, func() { sim.Run(zoo.MustNew("trimode:b=10"), mem) })
		tr.do("sim.generic", root, op, func() { sim.Run(zoo.MustNew("yags:c=11,e=10,h=10,t=6"), mem) })
		var obs *sim.Report
		tr.do("sim.observe", root, op, func() { obs = sim.Observe(zoo.MustNew("bimode:b=11"), mem, sim.ObserveOptions{}) })
		expect("observe", obs.Mispredicts == batch.Mispredicts)

		parsed := 0
		tr.do("trace.text_parse", root, op, func() {
			sc := trace.NewTextScanner(bytes.NewReader(text))
			for sc.Scan() {
				parsed++
			}
			oerr = sc.Err()
		})
		expect("text parse", oerr == nil && parsed == min(textRecords, n))
		var body *trace.Memory
		tr.do("trace.body_decode", root, op, func() { body, oerr = trace.Decode(bulk.Bytes()) })
		expect("body decode", oerr == nil && body.Len() == min(bulkRecords, n))

		var preds []predictor.Snapshotter
		tr.do("predictor.update", root, op, func() {
			for _, spec := range in.specs {
				p := zoo.MustNew(spec)
				for _, r := range req {
					p.Predict(r.PC)
					p.Update(r.PC, r.Taken)
				}
				preds = append(preds, p.(predictor.Snapshotter))
			}
		})
		var snapBytes int
		tr.do("predictor.snapshot", root, op, func() {
			for _, p := range preds {
				snapBytes += len(p.Snapshot(nil))
			}
		})
		tr.note("predictor.snapshot_bytes", op, float64(snapBytes))

		var on, off []sim.Result
		tr.do("sim.interleave_on", root, op, func() { on = bimode.RunAll(jobs) })
		tr.do("sim.interleave_off", root, op, func() { off = sim.NewScheduler(workers).WithContext(ctx).RunAll(jobs) })
		expect("interleave", sameResults(on, off))
		tr.end(root)
	}
	return attempted, failed, nil
}

func sameResults(a, b []sim.Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Err != nil || b[i].Err != nil || a[i] != b[i] {
			return false
		}
	}
	return true
}

// perLayer runs the traced run: an untraced half and a traced half of the
// workload's own ops, the stage replays over its inputs, and a census of
// the layers its ops do not reach, then fills m with every per-layer
// metric and writes every span to spanPath. It returns the tally of every
// op it ran. tr already holds the set-up spans.
func perLayer(m map[string]metric, w workload, spec workloadSpec, dur time.Duration, tr *tracer, seed int64, dir, spanPath string) (tally, error) {
	var all tally
	untraced, ph := measure(w, dur/2, nil)
	traced, _ := measure(w, dur/2, tr)
	all.merge(untraced)
	all.merge(traced)

	in := w.layer()
	st := newTracer()
	a, f, err := stages(in, dir, stageReps, st)
	if err != nil {
		return all, err
	}
	all.attempted += a
	all.failed += f

	// The census: two small paper ops, or a serve-text session per
	// client, so that every layer is measured in every workload's traced
	// run. Their spans go to their own tracer.
	ct := newTracer()
	paperT, paperSpans := untraced, tr
	serveT, serveIn := traced, in
	if !spec.onPaperPath {
		c := newPaper(seed, censusDynamic)
		if err := c.setup(setupReps-1, nil); err != nil {
			return all, err
		}
		if err := c.reference(); err != nil {
			return all, err
		}
		paperT, paperSpans = c.run(func(ops int) bool { return ops >= 2 }, ct), ct
		all.merge(paperT)
	}
	if !spec.onServePath {
		c := newServe(seed, dir, textKind, 1)
		defer c.close()
		if err := c.setup(setupReps, nil); err != nil {
			return all, err
		}
		if err := c.reference(); err != nil {
			return all, err
		}
		serveT, serveIn = c.run(func(ops int) bool { return ops >= 1 }, ct), c.layer()
		all.merge(serveT)
	}

	stageSpans := st.snapshot()
	med := func(name string) float64 { return median(durationsMS(stageSpans, name)) }
	n := float64(in.mem.Len())
	rate := func(records float64, msec float64) float64 { return records / msec / 1e3 }
	put := func(name string, v float64) { m[name] = metric{v, perLayerUnits[name]} }

	put("trace.open_ms", med("trace.open"))
	put("trace.decode_ms", med("trace.decode"))
	put("trace.decode_mrec_s", rate(n, med("trace.decode")))
	put("sim.columnar_pass_ms", med("sim.columnar_pass"))
	// Decode and the pass run back to back in each repetition, so their
	// per-repetition ratio is steadier than the ratio of medians.
	put("trace.decode_share", median(ratioPerOp(stageSpans, "trace.decode", "sim.columnar_pass")))
	put("trace.text_parse_ms", med("trace.text_parse"))
	put("trace.body_decode_ms", med("trace.body_decode"))
	put("sim.batch_mbr_s", rate(n, med("sim.batch")))
	put("sim.step_mbr_s", rate(n, med("sim.step")))
	put("sim.generic_mbr_s", rate(n, med("sim.generic")))
	put("sim.observe_mrec_s", rate(n, med("sim.observe")))
	put("sim.interleave_on_mbr_s", rate(4*n, med("sim.interleave_on")))
	put("sim.interleave_off_mbr_s", rate(4*n, med("sim.interleave_off")))
	put("sim.jobs_per_op", median(paperT.jobs))
	put("sim.pool_utilization", ph.cpu/(ph.wall*workers))

	ps := paperSpans.snapshot()
	pself := selfTimes(ps)
	for _, name := range []string{"experiments.table2", "experiments.figures234", "experiments.rivals",
		"analysis.figures78", "experiments.programs", "experiments.render"} {
		put(name+"_ms", median(perOpSelfMS(ps, pself, name)))
	}
	other := 0.0
	for _, name := range []string{"experiments.table1", "experiments.fig5", "experiments.fig6",
		"experiments.table3", "experiments.table4", "experiments.ctxswitch"} {
		other += median(perOpSelfMS(ps, pself, name))
	}
	put("experiments.other_ms", other)
	own := tr.snapshot()
	put("synth.generate_s", median(durationsMS(own, "synth.generate"))/1e3)

	put("predictor.update_ms", med("predictor.update"))
	put("predictor.snapshot_ms", med("predictor.snapshot"))
	put("predictor.snapshot_kb", median(st.notes("predictor.snapshot_bytes"))/1024)
	put("serve.journal_kb_per_op", median(serveT.journalKB))
	put("serve.read_p50_ms", median(serveT.readMS))
	// The residual is what the stage replays do not explain: HTTP, the
	// site-id map, snapshot JSON, and journal write and flush.
	stagesMS := med("predictor.update") + med("predictor.snapshot")
	if serveIn.request == bulkRecords {
		stagesMS += med("trace.body_decode")
	} else {
		stagesMS += med("trace.text_parse")
	}
	put("serve.residual_ms", median(serveT.opMS)-stagesMS)
	put("serve.overload", float64(serveT.overload))
	put("serve.rollbacks", float64(serveT.rollbacks))

	ops := float64(len(untraced.opMS))
	put("runtime.alloc_mb_per_op", ph.allocBytes/ops/1e6)
	// The runtime adds GC CPU time as cycles end, so a phase in which
	// none ended reports 0.
	put("runtime.gc_cpu_share", ph.gcCPU/ph.cpu)
	put("bench.trace_overhead", median(traced.opMS)/median(untraced.opMS)-1)
	put("bench.op_self_ms", median(perOpSelfMS(own, selfTimes(own), "op")))
	if len(m) != len(perLayerUnits) {
		return all, fmt.Errorf("per-layer metrics: have %d, want %d", len(m), len(perLayerUnits))
	}
	return all, writeSpans(spanPath, map[string]*tracer{"ops": tr, "stages": st, "census": ct})
}
