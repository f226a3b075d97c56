package lint

import (
	"go/types"
)

// CapLadderAnalyzer enforces that the optional-capability ladder of
// internal/predictor is downward closed. The simulator dispatches
// strongest capability first, and the differential tests only pin
// equivalence between rungs a predictor actually implements — a type that
// implements a fast rung without the rung below it would dodge the
// equivalence oracle, so the ladder shape is a compile-time invariant:
//
//	BatchRunner  ⇒ Predictor (a whole-trace loop must have the
//	                          Predict/Update reference it is checked
//	                          against)
//	Probe        ⇒ Predictor (observability is a capability of a
//	                          predictor)
//	ProbeBatcher ⇒ Probe and BatchRunner (a probe kernel is RunBatch that
//	                                      also writes ProbeLookup's rows;
//	                                      the differential fuzz compares it
//	                                      against both)
//	Snapshotter  ⇒ Predictor (checkpointable state belongs to a predictor;
//	                          the round-trip property test drives the
//	                          restored instance through the Predictor
//	                          protocol)
//
// The trace package has the same shape on the workload side, and the same
// rule applies to its newest rung:
//
//	trace.Blocked ⇒ trace.Source (a block iterator is a faster way to
//	                              replay the same workload; without
//	                              Stream the block/record differential
//	                              oracle has nothing to compare against)
var CapLadderAnalyzer = &Analyzer{
	Name: "capladder",
	Doc:  "predictor and trace capability implementers must implement the rungs below",
	Run:  runCapLadder,
}

func runCapLadder(pass *Pass) {
	// A rung the module does not define is nil, and no type implements
	// it: its own rules go quiet and the rungs above it are reported as
	// missing it, while every other rule still runs.
	predictorI := pass.Prog.predictorInterface("Predictor")
	batchI := pass.Prog.predictorInterface("BatchRunner")
	probeI := pass.Prog.predictorInterface("Probe")
	snapshotterI := pass.Prog.predictorInterface("Snapshotter")
	probeBatchI := pass.Prog.predictorInterface("ProbeBatcher")
	blockedI := pass.Prog.traceInterface("Blocked")
	sourceI := pass.Prog.traceInterface("Source")

	scope := pass.Pkg.Types.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Interface); ok {
			continue // the rungs themselves, or other interfaces
		}
		// A concrete type's full method set is that of *T.
		impl := func(iface *types.Interface) bool {
			return iface != nil && (types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface))
		}
		report := func(has, missing, why string) {
			pass.Reportf(tn.Pos(), "%s implements predictor.%s but not predictor.%s (%s)", name, has, missing, why)
		}
		if impl(batchI) && !impl(predictorI) {
			report("BatchRunner", "Predictor", "every whole-trace loop needs the Predict/Update reference the differential tests compare it against")
		}
		if impl(probeI) && !impl(predictorI) {
			report("Probe", "Predictor", "observability is a capability of a predictor, not a standalone type")
		}
		if impl(probeBatchI) {
			if !impl(probeI) {
				report("ProbeBatcher", "Probe", "the kernel's rows are checked against ProbeLookup, so the type must have it")
			}
			if !impl(batchI) {
				report("ProbeBatcher", "BatchRunner", "the kernel is RunBatch that also writes rows; without RunBatch there is nothing to check its state against")
			}
		}
		if impl(snapshotterI) && !impl(predictorI) {
			report("Snapshotter", "Predictor", "checkpointable state belongs to a predictor; resume drives the restored instance through the Predictor protocol")
		}
		if impl(blockedI) && !impl(sourceI) {
			pass.Reportf(tn.Pos(), "%s implements trace.Blocked but not trace.Source (the block iterator is the fast rung; without Stream the block/record differential oracle has nothing to compare it against)", name)
		}
	}
}
