package bimode

import (
	"context"
	"fmt"
	"io"

	"bimode/internal/analysis"
	"bimode/internal/core"
	"bimode/internal/fetch"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/workloads"
	"bimode/internal/zoo"
)

// Predictor is the interface every branch predictor implements; see the
// simulation protocol on the underlying definition (Predict then Update,
// once per dynamic branch, in order).
type Predictor = predictor.Predictor

// Probe is implemented by predictors that expose which second-level
// counter a lookup consults, and which way a steering structure voted;
// the bias analysis and the interference decomposition require it.
type Probe = predictor.Probe

// BatchRunner is the optional whole-trace capability: RunBatch simulates
// a record slice in one call and returns the misprediction count, exactly
// as Predict then Update on every record would. The simulator runs every
// block of records through it when it is present, and Predict/Update
// otherwise.
type BatchRunner = predictor.BatchRunner

// Snapshotter is the optional checkpoint capability: a predictor that can
// serialize its complete mutable state and restore it into an identically
// configured instance (after RestoreSnapshot(Snapshot(nil)) the two are
// prediction-for-prediction indistinguishable). The prediction service's
// session journal uses it to persist live sessions; the suite Journal does
// not, since it records completed cells only.
type Snapshotter = predictor.Snapshotter

// BiMode is the paper's predictor.
type BiMode = core.BiMode

// BiModeConfig parameterizes a bi-mode predictor.
type BiModeConfig = core.Config

// NewBiMode builds a bi-mode predictor from an explicit configuration.
func NewBiMode(cfg BiModeConfig) (*BiMode, error) { return core.New(cfg) }

// DefaultBiMode builds the paper's canonical shape: a choice table the
// size of one direction bank and full-length history, with banks of
// 2^bankBits two-bit counters (total cost 3*2^bankBits counters).
func DefaultBiMode(bankBits int) *BiMode { return core.MustNew(core.DefaultConfig(bankBits)) }

// NewPredictor constructs any predictor in the repository from a spec
// string such as "bimode:b=11", "gshare:i=12,h=8", "smith:a=12",
// "agree:i=12,h=12", "gskew:b=10,h=10" or "yags:c=11,e=10,h=10". See
// internal/zoo for the full grammar.
func NewPredictor(spec string) (Predictor, error) { return zoo.New(spec) }

// PredictorSpecs lists one example spec per predictor family.
func PredictorSpecs() []string { return zoo.Known() }

// Record is one dynamic conditional branch of a trace.
type Record = trace.Record

// Source produces identical replayable branch streams.
type Source = trace.Source

// Stream is a single pass over a branch trace.
type Stream = trace.Stream

// WorkloadOptions adjusts a workload when it is instantiated.
type WorkloadOptions = workloads.Options

// Workload instantiates a named workload: one of the fourteen calibrated
// benchmark stand-ins ("gcc", "go", "vortex", ..., "video_play") or an
// instrumented program ("lzw", "expr", "minilisp", "sortbench",
// "playout").
func Workload(name string, opts WorkloadOptions) (Source, error) {
	return workloads.Get(name, opts)
}

// WorkloadNames lists every registered workload.
func WorkloadNames() []string { return workloads.Names() }

// Materialize drains a source into memory so repeated simulations replay
// it cheaply.
func Materialize(src Source) Source { return trace.Materialize(src) }

// ColumnarTrace is a validated block-compressed trace file held as one
// byte slice: a zero-copy Source whose block iterator feeds the
// simulator a decoded slice of records at a time. See OpenColumnarTrace.
type ColumnarTrace = trace.Columnar

// WriteColumnarTrace serializes a materialized trace in the columnar
// block format ("BMC1"): per-block delta-compressed PC, static-id and
// outcome columns, each block and the header guarded by a CRC so any
// single-byte corruption decodes to a typed error, never a wrong-answer
// trace. The src must be an in-memory trace (the result of Materialize
// or trace generation); streaming sources should be materialized first.
func WriteColumnarTrace(w io.Writer, src Source) error {
	m, err := trace.MaterializeContext(context.Background(), src)
	if err != nil {
		return err
	}
	return trace.WriteColumnar(w, m)
}

// OpenColumnarTrace validates data as a columnar trace file (structure
// and every checksum, in one pass) and returns a zero-copy handle that
// Run consumes block-at-a-time. A block's static column is range-checked
// the first time a pass decodes the block whole; Run decodes a block
// that has passed that check without its static column, which no
// predictor reads, and a block that failed it fails every pass the same
// way. The caller must not mutate data while the handle is in use.
func OpenColumnarTrace(data []byte) (*ColumnarTrace, error) { return trace.OpenColumnar(data) }

// DecodeTrace opens an encoded BMC1 trace file and materializes it.
// Anything else fails at its magic with a *trace.ColumnarDecodeError.
func DecodeTrace(data []byte) (Source, error) { return trace.Decode(data) }

// Result summarizes one simulation run.
type Result = sim.Result

// Run simulates a predictor over the source and returns misprediction
// statistics, running each block of records through the predictor's
// RunBatch kernel when it has one (see BatchRunner); results are
// bit-identical to the generic loop either way.
func Run(p Predictor, src Source) Result { return sim.Run(p, src) }

// RunGeneric is Run restricted to the base Predict/Update stream loop,
// ignoring all fast-path capabilities; it is the reference the
// equivalence tests compare Run against.
func RunGeneric(p Predictor, src Source) Result { return sim.RunGeneric(p, src) }

// Job is one (predictor, workload) cell of a parallel sweep.
type Job = sim.Job

// RunAll executes jobs through the default scheduler (one worker per
// GOMAXPROCS) and returns results in job order.
func RunAll(jobs []Job) []Result { return sim.RunAll(jobs) }

// Scheduler executes simulation jobs on a bounded worker pool; zero
// workers is the sequential reference path the parallel output is proven
// byte-identical to.
type Scheduler = sim.Scheduler

// NewScheduler returns a scheduler with the given pool width; workers <= 0
// yields the sequential reference scheduler.
func NewScheduler(workers int) *Scheduler { return sim.NewScheduler(workers) }

// Journal is a suite-level checkpoint file: a scheduler carrying one (see
// Scheduler.WithJournal) records completed cells as it goes and, on a
// resumed run, serves them from cache — so a killed sweep re-runs only
// the cells that were in flight, with output identical to an
// uninterrupted run. It holds completed cells only, never predictor
// snapshots.
type Journal = sim.Journal

// CreateJournal starts a fresh checkpoint at path. Cells are keyed by
// what they are (predictor configuration and trace content), so one
// checkpoint serves any plan that repeats its cells.
func CreateJournal(path string) (*Journal, error) { return sim.CreateJournal(path) }

// ResumeJournal reopens an existing checkpoint, dropping the torn
// trailing record a killed writer leaves behind; a checkpoint of another
// version or with a damaged interior is an error.
func ResumeJournal(path string) (*Journal, error) { return sim.ResumeJournal(path) }

// Study is the bias-class analysis of paper Section 4. Its Substreams
// slice lists every substream s(i,c) the run accessed, in order of first
// appearance.
type Study = analysis.Study

// RunStudy performs the bias analysis of a fresh predictor (which must
// implement Probe) in one simulation pass over a workload. Gshare and
// bi-mode run it through their batched probe kernels; any other
// predictor is stepped one record at a time. A damaged block source ends
// the study with its decode error.
func RunStudy(p Predictor, src Source) (*Study, error) {
	return analysis.RunStudy(p, src)
}

// CostBytes reports a predictor's hardware cost in bytes of counter
// state, the paper's size metric.
func CostBytes(p Predictor) float64 { return predictor.CostBytes(p) }

// TriMode is the repository's extension of bi-mode along the paper's
// future-work direction: a third direction bank isolating weakly biased
// branches.
type TriMode = core.TriMode

// NewTriMode builds a tri-mode predictor from a bi-mode configuration.
func NewTriMode(cfg BiModeConfig) (*TriMode, error) { return core.NewTriMode(cfg) }

// RunDelayed simulates with a resolution lag: each branch's outcome is
// applied only after `lag` further predictions, modeling non-speculative
// predictor update in a pipeline. Its error contract is Run's: a decode
// error from a damaged block source panics with the typed error, which
// RunAll's per-job recovery turns into the cell's Result.Err.
func RunDelayed(p Predictor, src Source, lag int) Result { return sim.RunDelayed(p, src, lag) }

// PipelineModel converts misprediction rates into CPI estimates.
type PipelineModel = sim.PipelineModel

// DefaultPipeline models a Pentium Pro-class machine of the paper's era.
func DefaultPipeline() PipelineModel { return sim.DefaultPipeline() }

// InterferenceBreakdown decomposes mispredictions into compulsory,
// conflict and intrinsic components.
type InterferenceBreakdown = analysis.InterferenceBreakdown

// MeasureInterference runs the conflict/capacity decomposition for a
// predictor implementing Probe.
func MeasureInterference(p Predictor, src Source) (InterferenceBreakdown, error) {
	return analysis.MeasureInterference(p, src)
}

// ControlSource produces control-flow traces (conditional branches with
// targets, calls, returns, jumps); the synthetic benchmarks implement it.
type ControlSource = trace.ControlSource

// FetchEngine is the front-end model: direction predictor + branch
// target buffer + return address stack.
type FetchEngine = fetch.Engine

// FetchConfig assembles a front end.
type FetchConfig = fetch.Config

// FetchMetrics aggregates a front-end simulation.
type FetchMetrics = fetch.Metrics

// NewFetchEngine builds a front end; see fetch.Config for the knobs.
func NewFetchEngine(cfg FetchConfig) *FetchEngine { return fetch.NewEngine(cfg) }

// ControlWorkload instantiates a named synthetic benchmark as a
// control-flow trace source (the instrumented programs only produce
// direction traces).
func ControlWorkload(name string, opts WorkloadOptions) (ControlSource, error) {
	prof, ok := synth.ProfileByName(name)
	if !ok {
		return nil, fmt.Errorf("bimode: no control-flow model for workload %q (synthetic benchmarks only)", name)
	}
	if opts.Dynamic > 0 {
		prof = prof.WithDynamic(opts.Dynamic)
	}
	if opts.Seed != 0 {
		prof = prof.WithSeed(opts.Seed)
	}
	return synth.NewWorkload(prof)
}
