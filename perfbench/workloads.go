package main

import (
	"fmt"
	"sort"
)

// workloadSpec describes a workload to the runner.
type workloadSpec struct {
	// onPaperPath and onServePath say which layers the workload's own ops
	// exercise; the traced run probes the others at census scale.
	onPaperPath, onServePath bool
	notes                    string
	make                     func(seed int64, dir string) workload
}

var workloadSpecs = map[string]workloadSpec{
	"replay-columnar": {
		notes: "op = open + 4 specs + observe over 4 Mi records; Mrec/s counts 5 passes",
		make:  func(seed int64, dir string) workload { return newReplay(seed, dir, replayRecords) },
	},
	"paper-grid": {
		onPaperPath: true,
		notes:       "op = every artifact cmd/paper renders; Mrec/s counts suite input records",
		make:        func(seed int64, dir string) workload { return newPaper(seed, paperDynamic) },
	},
	"serve-text": {
		onServePath: true,
		notes:       "op = one 4096-record text ingest; CPU includes the in-process clients",
		make:        func(seed int64, dir string) workload { return newServe(seed, dir, textKind, servePool) },
	},
	"serve-bulk": {
		onServePath: true,
		notes:       "op = one 65536-record BMC1 ingest; CPU includes the in-process clients",
		make:        func(seed int64, dir string) workload { return newServe(seed, dir, bulkKind, servePool) },
	},
}

func workloadNames() []string {
	var out []string
	for n := range workloadSpecs {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func newWorkload(name string, seed int64, dir string) (workload, workloadSpec, error) {
	spec, ok := workloadSpecs[name]
	if !ok {
		return nil, spec, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames())
	}
	return spec.make(seed, dir), spec, nil
}
