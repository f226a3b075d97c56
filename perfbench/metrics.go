package main

// endToEndUnits and perLayerUnits name every metric a run reports, with
// its unit. BENCHMARK.json lists the same names; a test keeps them equal.
var endToEndUnits = map[string]string{
	"setup_s":       "s",
	"peak_rss_mb":   "MB",
	"cpu_ms_per_op": "ms",
	"ok_ratio":      "ratio",
}

var perLayerUnits = map[string]string{
	"trace.open_ms":             "ms",
	"trace.decode_ms":           "ms",
	"trace.decode_mrec_s":       "Mrec/s",
	"trace.decode_share":        "ratio",
	"trace.text_parse_ms":       "ms",
	"trace.body_decode_ms":      "ms",
	"sim.columnar_pass_ms":      "ms",
	"sim.batch_mbr_s":           "Mbr/s",
	"sim.step_mbr_s":            "Mbr/s",
	"sim.generic_mbr_s":         "Mbr/s",
	"sim.observe_mrec_s":        "Mrec/s",
	"sim.interleave_on_mbr_s":   "Mbr/s",
	"sim.interleave_off_mbr_s":  "Mbr/s",
	"sim.jobs_per_op":           "count",
	"sim.pool_utilization":      "ratio",
	"experiments.table2_ms":     "ms",
	"experiments.figures234_ms": "ms",
	"experiments.rivals_ms":     "ms",
	"analysis.figures78_ms":     "ms",
	"experiments.programs_ms":   "ms",
	"experiments.render_ms":     "ms",
	"experiments.other_ms":      "ms",
	"synth.generate_s":          "s",
	"predictor.update_ms":       "ms",
	"predictor.snapshot_ms":     "ms",
	"predictor.snapshot_kb":     "KB",
	"serve.journal_kb_per_op":   "KB",
	"serve.read_p50_ms":         "ms",
	"serve.residual_ms":         "ms",
	"serve.overload":            "count",
	"serve.rollbacks":           "count",
	"runtime.alloc_mb_per_op":   "MB",
	"runtime.gc_cpu_share":      "ratio",
	"bench.trace_overhead":      "ratio",
	"bench.op_self_ms":          "ms",
}
