package baselines

import "fmt"

// predictor.Snapshotter implementations for the baselines the
// prediction service persists in its session journal: gshare (which also
// backs the gshare.best sweeps) and the Smith predictor. Each snapshot is a
// one-byte type tag followed by the table and register snapshots; the
// shape validation lives in the counter/history encodings.
const (
	snapTagGshare = 0x11
	snapTagSmith  = 0x12
)

// Snapshot implements predictor.Snapshotter.
func (g *Gshare) Snapshot(dst []byte) []byte {
	dst = append(dst, snapTagGshare)
	dst = g.table.AppendSnapshot(dst)
	return g.ghr.AppendSnapshot(dst)
}

// RestoreSnapshot implements predictor.Snapshotter.
func (g *Gshare) RestoreSnapshot(data []byte) error {
	if len(data) == 0 || data[0] != snapTagGshare {
		return fmt.Errorf("baselines: not a gshare snapshot")
	}
	rest, err := g.table.ReadSnapshot(data[1:])
	if err != nil {
		return fmt.Errorf("baselines: gshare table: %w", err)
	}
	if rest, err = g.ghr.ReadSnapshot(rest); err != nil {
		return fmt.Errorf("baselines: gshare history: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("baselines: gshare snapshot has %d trailing bytes", len(rest))
	}
	return nil
}

// Snapshot implements predictor.Snapshotter.
func (s *Smith) Snapshot(dst []byte) []byte {
	dst = append(dst, snapTagSmith)
	return s.table.AppendSnapshot(dst)
}

// RestoreSnapshot implements predictor.Snapshotter.
func (s *Smith) RestoreSnapshot(data []byte) error {
	if len(data) == 0 || data[0] != snapTagSmith {
		return fmt.Errorf("baselines: not a smith snapshot")
	}
	rest, err := s.table.ReadSnapshot(data[1:])
	if err != nil {
		return fmt.Errorf("baselines: smith table: %w", err)
	}
	if len(rest) != 0 {
		return fmt.Errorf("baselines: smith snapshot has %d trailing bytes", len(rest))
	}
	return nil
}
