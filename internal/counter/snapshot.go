package counter

import (
	"encoding/binary"
	"fmt"
)

// Snapshot encoding for counter tables, the building block behind the
// predictor.Snapshotter implementations: one byte of counter width, a
// uvarint entry count, then the raw entry bytes. The width and count are
// redundant with the receiving table's construction parameters, which is
// the point — ReadSnapshot validates them so a snapshot can never be
// restored into a table of a different shape, and validates every entry
// against the counter range so corrupted bytes are rejected instead of
// smuggling out-of-range states into the branch-free simulation loops
// (which rely on SatNext-produced values for bounds-check elimination).

// AppendSnapshot appends the table's counter state to dst and returns the
// extended slice.
func (t *Table) AppendSnapshot(dst []byte) []byte {
	return AppendStates(dst, t.bits, t.entries)
}

// ReadSnapshot restores counter state previously captured by
// AppendSnapshot, consuming it from the front of data and returning the
// remainder. The snapshot must match the table's width and length exactly
// and every entry must be in range; on error the table is unchanged.
func (t *Table) ReadSnapshot(data []byte) ([]byte, error) {
	return ReadStates(data, t.bits, t.entries)
}

// AppendStates appends a counter-state sequence of the given width to dst
// in the table snapshot encoding. It is the codec behind
// Table.AppendSnapshot, exported so predictors that keep their counters in
// a packed layout (internal/core's fused bi-mode planes) can emit
// snapshots byte-identical to the unpacked tables they replaced.
func AppendStates(dst []byte, bits int, entries []State) []byte {
	dst = append(dst, byte(bits))
	dst = binary.AppendUvarint(dst, uint64(len(entries)))
	for _, v := range entries {
		dst = append(dst, byte(v))
	}
	return dst
}

// AppendField appends, in the AppendStates encoding, the bits-wide
// counter field at bit offset shift of every byte of a packed plane: the
// bytes AppendStates would write for the plane unpacked into States,
// without the unpacked copy. Packed predictors snapshot their planes
// through it.
func AppendField(dst []byte, bits int, plane []uint8, shift uint) []byte {
	dst = append(dst, byte(bits))
	dst = binary.AppendUvarint(dst, uint64(len(plane)))
	mask := uint8(1<<uint(bits) - 1)
	for _, b := range plane {
		dst = append(dst, b>>shift&mask)
	}
	return dst
}

// ReadStates consumes a counter-state sequence previously written by
// AppendStates from the front of data, storing it into entries and
// returning the remainder. The snapshot must match the given width and
// len(entries) exactly and every value must be in the counter range; on
// error entries is unchanged.
func ReadStates(data []byte, bits int, entries []State) ([]byte, error) {
	if len(data) < 1 {
		return nil, fmt.Errorf("counter: snapshot truncated before width byte")
	}
	if int(data[0]) != bits {
		return nil, fmt.Errorf("counter: snapshot width %d does not match table width %d", data[0], bits)
	}
	max := State(1<<uint(bits) - 1)
	n, used := binary.Uvarint(data[1:])
	if used <= 0 {
		return nil, fmt.Errorf("counter: snapshot truncated in entry count")
	}
	if n != uint64(len(entries)) {
		return nil, fmt.Errorf("counter: snapshot holds %d entries, table holds %d", n, len(entries))
	}
	body := data[1+used:]
	if uint64(len(body)) < n {
		return nil, fmt.Errorf("counter: snapshot truncated: %d of %d entries", len(body), n)
	}
	for i := uint64(0); i < n; i++ {
		if State(body[i]) > max {
			return nil, fmt.Errorf("counter: snapshot entry %d value %d exceeds max %d", i, body[i], max)
		}
	}
	for i := range entries {
		entries[i] = State(body[i])
	}
	return body[n:], nil
}
