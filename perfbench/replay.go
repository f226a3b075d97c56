package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// replayRecords is the replay trace's length: 64 MB of records, far past
// any cache.
const replayRecords = 4 << 20

// replaySpecs cover the three engine tiers: BatchRunner (bi-mode,
// gshare), Stepper (tri-mode) and Predict/Update (YAGS).
var replaySpecs = []string{"bimode:b=11", "gshare:i=12,h=12", "trimode:b=10", "yags:c=11,e=10,h=10,t=6"}

// observeSpec is the spec of the op's sim.Observe pass.
const observeSpec = "bimode:b=11"

// replay is the "replay my capture" path: a BMC1 file on disk, opened and
// replayed through sim.Run and sim.Observe.
type replay struct {
	seed int64
	n    int
	path string
	mem  *trace.Memory
	want map[string]int // spec -> mispredicts by sim.RunGeneric
}

func newReplay(seed int64, dir string, n int) *replay {
	return &replay{seed: seed, n: n, path: filepath.Join(dir, "replay.bmc")}
}

// gccTrace generates n records of the gcc profile under seed.
func gccTrace(seed int64, n int) *trace.Memory {
	p, ok := synth.ProfileByName("gcc")
	if !ok {
		panic("synth: gcc profile missing")
	}
	return trace.Materialize(synth.MustWorkload(p.WithSeed(uint64(seed)).WithDynamic(n)))
}

func (r *replay) setup(rep int, tr *tracer) error {
	r.mem = nil
	tr.do("synth.generate", 0, 0, func() { r.mem = gccTrace(r.seed, r.n) })
	return writeColumnarFile(r.path, r.mem)
}

func writeColumnarFile(path string, mem *trace.Memory) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := trace.WriteColumnar(bw, mem); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *replay) reference() error {
	r.want = map[string]int{}
	for _, spec := range replaySpecs {
		p, err := zoo.New(spec)
		if err != nil {
			return err
		}
		r.want[spec] = sim.RunGeneric(p, r.mem).Mispredicts
	}
	return nil
}

func (r *replay) run(stop func(int) bool, tr *tracer) tally {
	var t tally
	for !stop(len(t.opMS)) {
		op := nextOp()
		t0 := time.Now()
		id := tr.start("op", 0, op)
		err := r.op(tr, id, op)
		tr.end(id)
		t.finish(t0, int64(r.n)*int64(len(replaySpecs)+1))
		t.attempted++
		if err != nil {
			t.failed++
			fmt.Fprintln(os.Stderr, "perfbench: replay op:", err)
		}
	}
	return t
}

// op opens the file and replays it once per spec plus one observed pass,
// checking every mispredict count against the reference.
func (r *replay) op(tr *tracer, parent, op int) error {
	var c *trace.Columnar
	var err error
	tr.do("trace.open", parent, op, func() { c, err = trace.OpenColumnarFile(r.path) })
	if err != nil {
		return err
	}
	for _, spec := range replaySpecs {
		p, err := zoo.New(spec)
		if err != nil {
			return err
		}
		var res sim.Result
		tr.do("sim.run", parent, op, func() { res = sim.Run(p, c) })
		if err := check(spec, res.Branches, res.Mispredicts, r.n, r.want[spec]); err != nil {
			return err
		}
	}
	p, err := zoo.New(observeSpec)
	if err != nil {
		return err
	}
	var rep *sim.Report
	tr.do("sim.observe", parent, op, func() { rep = sim.Observe(p, c, sim.ObserveOptions{}) })
	return check("observe "+observeSpec, rep.Branches, rep.Mispredicts, r.n, r.want[observeSpec])
}

// check compares a run's counts with the reference.
func check(what string, branches, miss, wantBranches, wantMiss int) error {
	if branches != wantBranches || miss != wantMiss {
		return fmt.Errorf("%s: %d branches, %d mispredicts; reference %d, %d",
			what, branches, miss, wantBranches, wantMiss)
	}
	return nil
}

func (r *replay) layer() layerInput {
	return layerInput{mem: r.mem, specs: textSpecs, request: textRecords}
}

func (r *replay) close() {}
