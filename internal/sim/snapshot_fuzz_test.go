package sim_test

// Fuzzing of predictor snapshot restore, the decoder on-disk journals
// feed: for every snapshotting family, no input may panic, and an input
// that restores without error must yield a state whose own snapshot
// restores into a fresh twin that then runs forward identically. The
// seed corpus in testdata/fuzz/FuzzRestoreSnapshot holds one valid
// mid-run snapshot per family plus truncated and tag-flipped variants.

import (
	"bytes"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// restoreSpecs are small geometries of the four snapshotting families,
// indexed by the fuzz input's family byte.
var restoreSpecs = []string{"bimode:b=5", "trimode:b=5", "gshare:i=6,h=4", "smith:a=6"}

func FuzzRestoreSnapshot(f *testing.F) {
	fwd := trace.Materialize(synth.MustWorkload(synth.Profiles()[0].WithDynamic(3000)))
	f.Fuzz(func(t *testing.T, family uint8, data []byte) {
		spec := restoreSpecs[int(family)%len(restoreSpecs)]
		p := zoo.MustNew(spec)
		if p.(predictor.Snapshotter).RestoreSnapshot(data) != nil {
			return
		}
		twin := zoo.MustNew(spec)
		if err := twin.(predictor.Snapshotter).RestoreSnapshot(p.(predictor.Snapshotter).Snapshot(nil)); err != nil {
			t.Fatalf("%s: the snapshot of a restored state does not restore: %v", spec, err)
		}
		if got, want := sim.Run(p, fwd), sim.Run(twin, fwd); got != want {
			t.Fatalf("%s: restored %+v, twin %+v", spec, got, want)
		}
		if !bytes.Equal(p.(predictor.Snapshotter).Snapshot(nil), twin.(predictor.Snapshotter).Snapshot(nil)) {
			t.Fatalf("%s: final state differs from the twin's", spec)
		}
	})
}
