package core

import (
	"fmt"

	"bimode/internal/counter"
)

// predictor.Snapshotter implementations for the bi-mode and tri-mode
// predictors. Each snapshot is a one-byte type tag followed by the
// constituent table and register snapshots in a fixed order; the tag
// catches a snapshot restored into the wrong predictor kind before the
// shape checks inside counter/history reject the details.
//
// The wire format predates the packed plane layout and is kept
// byte-identical to it: each logical table's field is appended straight
// from its plane by counter.AppendField, in the encoding
// counter.AppendStates gives the standalone counter.Table it replaced, so
// snapshots taken before the packing (the PR 5 journal corpus) restore
// into the packed planes and vice versa. Restore unpacks into
// counter.State scratch, validating with counter.ReadStates before any
// plane byte is touched.
const (
	snapTagBiMode  = 0x01
	snapTagTriMode = 0x02
)

// Snapshot implements predictor.Snapshotter.
func (b *BiMode) Snapshot(dst []byte) []byte {
	dst = append(dst, snapTagBiMode)
	dst = counter.AppendField(dst, 2, b.choicePlane, fusedChoiceShift)
	dst = counter.AppendField(dst, 2, b.dirPlane, uint(BankNotTaken)*fusedBankTShift)
	dst = counter.AppendField(dst, 2, b.dirPlane, uint(BankTaken)*fusedBankTShift)
	return b.ghr.AppendSnapshot(dst)
}

// RestoreSnapshot implements predictor.Snapshotter.
func (b *BiMode) RestoreSnapshot(data []byte) error {
	rest, err := checkSnapTag("bi-mode", snapTagBiMode, data)
	if err != nil {
		return err
	}
	choice := make([]counter.State, len(b.choicePlane))
	nt := make([]counter.State, len(b.dirPlane))
	tb := make([]counter.State, len(b.dirPlane))
	if rest, err = counter.ReadStates(rest, 2, choice); err != nil {
		return fmt.Errorf("core: bi-mode choice table: %w", err)
	}
	if rest, err = counter.ReadStates(rest, 2, nt); err != nil {
		return fmt.Errorf("core: bi-mode not-taken bank: %w", err)
	}
	if rest, err = counter.ReadStates(rest, 2, tb); err != nil {
		return fmt.Errorf("core: bi-mode taken bank: %w", err)
	}
	if rest, err = b.ghr.ReadSnapshot(rest); err != nil {
		return fmt.Errorf("core: bi-mode history: %w", err)
	}
	if err = checkSnapEmpty("bi-mode", rest); err != nil {
		return err
	}
	b.setChoiceStates(choice)
	b.setBankStates(BankNotTaken, nt)
	b.setBankStates(BankTaken, tb)
	return nil
}

// Snapshot implements predictor.Snapshotter.
func (t *TriMode) Snapshot(dst []byte) []byte {
	dst = append(dst, snapTagTriMode)
	dst = counter.AppendField(dst, 3, t.choicePlane, 0)
	for bank := 0; bank < 3; bank++ {
		dst = counter.AppendField(dst, 2, t.dirPlane, uint(bank)*2)
	}
	return t.ghr.AppendSnapshot(dst)
}

// RestoreSnapshot implements predictor.Snapshotter.
func (t *TriMode) RestoreSnapshot(data []byte) error {
	rest, err := checkSnapTag("tri-mode", snapTagTriMode, data)
	if err != nil {
		return err
	}
	choice := make([]counter.State, len(t.choicePlane))
	if rest, err = counter.ReadStates(rest, 3, choice); err != nil {
		return fmt.Errorf("core: tri-mode choice table: %w", err)
	}
	var banks [3][]counter.State
	for i := range banks {
		banks[i] = make([]counter.State, len(t.dirPlane))
		if rest, err = counter.ReadStates(rest, 2, banks[i]); err != nil {
			return fmt.Errorf("core: tri-mode bank %d: %w", i, err)
		}
	}
	if rest, err = t.ghr.ReadSnapshot(rest); err != nil {
		return fmt.Errorf("core: tri-mode history: %w", err)
	}
	if err = checkSnapEmpty("tri-mode", rest); err != nil {
		return err
	}
	t.setChoiceStates(choice)
	for i := range banks {
		t.setBankStates(i, banks[i])
	}
	return nil
}

// checkSnapTag consumes and validates the leading type tag.
func checkSnapTag(kind string, tag byte, data []byte) ([]byte, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("core: empty %s snapshot", kind)
	}
	if data[0] != tag {
		return nil, fmt.Errorf("core: snapshot tag %#x is not a %s snapshot (want %#x)", data[0], kind, tag)
	}
	return data[1:], nil
}

// checkSnapEmpty rejects trailing bytes, which indicate a shape mismatch
// the per-field checks could not see.
func checkSnapEmpty(kind string, rest []byte) error {
	if len(rest) != 0 {
		return fmt.Errorf("core: %s snapshot has %d trailing bytes", kind, len(rest))
	}
	return nil
}
