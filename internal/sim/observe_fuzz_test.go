package sim_test

// Fuzzing of observer snapshot restore, the decoder predserve session
// journals feed: for every snapshotting family (restoreSpecs), no input
// may panic, and an input that restores without error must yield an
// observer whose own snapshot restores into a fresh twin that then
// reports identically after the same suffix. The seed corpus in
// testdata/fuzz/FuzzRestoreObserver holds one valid mid-run snapshot per
// family plus truncated and byte-flipped variants.

import (
	"bytes"
	"reflect"
	"testing"

	"bimode/internal/sim"
	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

func FuzzRestoreObserver(f *testing.F) {
	suffix := trace.Materialize(synth.MustWorkload(synth.Profiles()[0].WithDynamic(2000))).Records()
	f.Fuzz(func(t *testing.T, family uint8, data []byte) {
		spec := restoreSpecs[int(family)%len(restoreSpecs)]
		o := sim.NewObserver(zoo.MustNew(spec))
		if o.Restore(data) != nil {
			return
		}
		twin := sim.NewObserver(zoo.MustNew(spec))
		if err := twin.Restore(o.Snapshot(nil)); err != nil {
			t.Fatalf("%s: the snapshot of a restored observer does not restore: %v", spec, err)
		}
		o.Feed(suffix)
		twin.Feed(suffix)
		if got, want := o.Report(10), twin.Report(10); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: restored %+v, twin %+v", spec, got, want)
		}
		if !bytes.Equal(o.Snapshot(nil), twin.Snapshot(nil)) {
			t.Fatalf("%s: final state differs from the twin's", spec)
		}
	})
}
