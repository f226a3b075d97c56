package sim_test

// Snapshot property tests: for every registered predictor implementing
// predictor.Snapshotter, serializing mid-run and restoring into a fresh
// instance must be undetectable — the restored predictor predicts
// branch-for-branch identically to the uninterrupted one from the cut point
// on. This is the correctness backbone of the service's session journal
// (a spilled or restarted session restores its snapshot and continues).

import (
	"bytes"
	"strings"
	"testing"

	"bimode/internal/predictor"
	"bimode/internal/zoo"
)

// snapshotterSpecs returns the registered specs whose predictors
// implement Snapshotter, failing the test if one of the families the
// checkpoint machinery documents (bi-mode, tri-mode, gshare, smith) has
// lost the capability.
func snapshotterSpecs(t *testing.T) []string {
	t.Helper()
	want := map[string]bool{"bimode": false, "trimode": false, "gshare": false, "smith": false}
	var specs []string
	for _, spec := range zoo.Known() {
		if _, ok := zoo.MustNew(spec).(predictor.Snapshotter); !ok {
			continue
		}
		specs = append(specs, spec)
		fam, _, _ := strings.Cut(spec, ":")
		if _, tracked := want[fam]; tracked {
			want[fam] = true
		}
	}
	for fam, seen := range want {
		if !seen {
			t.Errorf("family %q no longer implements predictor.Snapshotter", fam)
		}
	}
	return specs
}

func TestSnapshotRoundTripEquivalence(t *testing.T) {
	recs := suiteTraces()[0].Records()
	cut := len(recs) / 2
	for _, spec := range snapshotterSpecs(t) {
		t.Run(spec, func(t *testing.T) {
			ref := zoo.MustNew(spec)
			for _, r := range recs[:cut] {
				ref.Predict(r.PC)
				ref.Update(r.PC, r.Taken)
			}
			snap := ref.(predictor.Snapshotter).Snapshot(nil)

			restored := zoo.MustNew(spec)
			if err := restored.(predictor.Snapshotter).RestoreSnapshot(snap); err != nil {
				t.Fatalf("RestoreSnapshot: %v", err)
			}
			// Restoring must not consume or mutate the snapshot bytes.
			if again := restored.(predictor.Snapshotter).Snapshot(nil); !bytes.Equal(again, snap) {
				t.Fatalf("snapshot of the restored predictor differs from the snapshot it was restored from")
			}
			for i, r := range recs[cut:] {
				want := ref.Predict(r.PC)
				got := restored.Predict(r.PC)
				if got != want {
					t.Fatalf("record %d after cut: restored predicted %v, uninterrupted predicted %v", i, got, want)
				}
				ref.Update(r.PC, r.Taken)
				restored.Update(r.PC, r.Taken)
			}
			final := ref.(predictor.Snapshotter).Snapshot(nil)
			if got := restored.(predictor.Snapshotter).Snapshot(nil); !bytes.Equal(got, final) {
				t.Fatalf("final state diverged after identical suffix")
			}
		})
	}
}

// TestSnapshotRestoreRejectsForeign proves a snapshot can only land in an
// identically configured instance: every (source spec, destination spec)
// pair with differing specs must refuse the restore, and the refused
// destination must be rewindable with Reset (what runCell does).
func TestSnapshotRestoreRejectsForeign(t *testing.T) {
	specs := snapshotterSpecs(t)
	recs := suiteTraces()[0].Records()
	snaps := make(map[string][]byte, len(specs))
	for _, spec := range specs {
		p := zoo.MustNew(spec)
		for _, r := range recs[:2000] {
			p.Predict(r.PC)
			p.Update(r.PC, r.Taken)
		}
		snaps[spec] = p.(predictor.Snapshotter).Snapshot(nil)
	}
	for _, src := range specs {
		for _, dst := range specs {
			if src == dst {
				continue
			}
			p := zoo.MustNew(dst)
			if err := p.(predictor.Snapshotter).RestoreSnapshot(snaps[src]); err == nil {
				t.Errorf("%s accepted a snapshot from %s", dst, src)
			}
		}
	}
}

func TestSnapshotRestoreRejectsCorruption(t *testing.T) {
	for _, spec := range snapshotterSpecs(t) {
		p := zoo.MustNew(spec)
		snap := p.(predictor.Snapshotter).Snapshot(nil)
		for _, tc := range []struct {
			name string
			data []byte
		}{
			{"empty", nil},
			{"truncated", snap[:len(snap)/2]},
			{"trailing", append(append([]byte(nil), snap...), 0x00)},
		} {
			q := zoo.MustNew(spec)
			if err := q.(predictor.Snapshotter).RestoreSnapshot(tc.data); err == nil {
				t.Errorf("%s: RestoreSnapshot accepted %s snapshot", spec, tc.name)
			}
		}
	}
}
