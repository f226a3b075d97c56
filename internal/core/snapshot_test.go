package core

import (
	"bytes"
	"fmt"
	"testing"

	"bimode/internal/counter"
	"bimode/internal/synth"
	"bimode/internal/trace"
)

// unpackedBiModeSnapshot is the bi-mode snapshot encoder as it was before
// Snapshot appended straight from the planes: every table unpacked into
// counter.State scratch, then encoded with counter.AppendStates. Snapshot
// must stay byte-identical to it.
func unpackedBiModeSnapshot(b *BiMode, dst []byte) []byte {
	dst = append(dst, snapTagBiMode)
	scratch := make([]counter.State, 0, len(b.choicePlane))
	dst = counter.AppendStates(dst, 2, b.choiceStates(scratch))
	dst = counter.AppendStates(dst, 2, b.bankStates(BankNotTaken, scratch[:0]))
	dst = counter.AppendStates(dst, 2, b.bankStates(BankTaken, scratch[:0]))
	return b.ghr.AppendSnapshot(dst)
}

// unpackedTriModeSnapshot is the tri-mode counterpart.
func unpackedTriModeSnapshot(t *TriMode, dst []byte) []byte {
	dst = append(dst, snapTagTriMode)
	dst = counter.AppendStates(dst, 3, unpackPlaneField(nil, t.choicePlane, 0, 3))
	for bank := 0; bank < 3; bank++ {
		dst = counter.AppendStates(dst, 2, unpackPlaneField(nil, t.dirPlane, uint(bank)*2, 2))
	}
	return t.ghr.AppendSnapshot(dst)
}

// suiteRecords returns a suite workload's records, enough of them to move
// most counters of a 2^16-entry table off their initial states.
func suiteRecords(t *testing.T) []trace.Record {
	t.Helper()
	prof, ok := synth.ProfileByName("gcc")
	if !ok {
		t.Fatal("no gcc profile")
	}
	return trace.Materialize(synth.MustWorkload(prof.WithDynamic(200000))).Records()
}

// TestSnapshotMatchesUnpackedEncoder pins the plane-direct snapshot
// encoders to the unpacked ones they replaced, after a suite trace has
// trained every plane field, at the small, middle and top sizes of the
// paper's Figure 2 axis.
func TestSnapshotMatchesUnpackedEncoder(t *testing.T) {
	recs := suiteRecords(t)
	for _, bits := range []int{8, 11, 16} {
		t.Run(fmt.Sprintf("b=%d", bits), func(t *testing.T) {
			b := MustNew(DefaultConfig(bits))
			tm := MustNewTriMode(DefaultConfig(bits))
			for _, r := range recs {
				b.Predict(r.PC)
				b.Update(r.PC, r.Taken)
				tm.Predict(r.PC)
				tm.Update(r.PC, r.Taken)
			}
			if got, want := b.Snapshot(nil), unpackedBiModeSnapshot(b, nil); !bytes.Equal(got, want) {
				t.Errorf("bi-mode snapshot differs from the unpacked encoder (%d vs %d bytes)", len(got), len(want))
			}
			if got, want := tm.Snapshot(nil), unpackedTriModeSnapshot(tm, nil); !bytes.Equal(got, want) {
				t.Errorf("tri-mode snapshot differs from the unpacked encoder (%d vs %d bytes)", len(got), len(want))
			}
		})
	}
}

// TestSnapshotAllocs: into a dst with room for it, a snapshot allocates
// nothing.
func TestSnapshotAllocs(t *testing.T) {
	b := MustNew(DefaultConfig(16))
	tm := MustNewTriMode(DefaultConfig(16))
	bdst := make([]byte, 0, len(b.Snapshot(nil)))
	tdst := make([]byte, 0, len(tm.Snapshot(nil)))
	if n := testing.AllocsPerRun(10, func() { bdst = b.Snapshot(bdst[:0]) }); n != 0 {
		t.Errorf("bi-mode Snapshot: %v allocations per call, want 0", n)
	}
	if n := testing.AllocsPerRun(10, func() { tdst = tm.Snapshot(tdst[:0]) }); n != 0 {
		t.Errorf("tri-mode Snapshot: %v allocations per call, want 0", n)
	}
}
