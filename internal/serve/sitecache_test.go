package serve

import (
	"context"
	"math/rand/v2"
	"net/http"
	"slices"
	"strings"
	"testing"
	"time"

	"bimode/internal/trace"
)

// firstAppearance numbers PCs densely in order of first appearance, the
// ids the session's site table gives.
func firstAppearance(pcs []uint64) map[uint64]uint32 {
	ids := map[uint64]uint32{}
	for _, pc := range pcs {
		if _, ok := ids[pc]; !ok {
			ids[pc] = uint32(len(ids))
		}
	}
	return ids
}

// TestSiteCacheCollisions: PCs that share a site table slot, alternating
// record by record, within one body and across bodies, each get their
// first-appearance id — directly from the session's site table, and
// through text bodies whose reports must equal one Observe pass over the
// first-appearance numbering.
func TestSiteCacheCollisions(t *testing.T) {
	slotPCs := tableSlotPCs(6)
	for _, pc := range slotPCs {
		if homeSlot(pc) != homeSlot(slotPCs[0]) {
			t.Fatalf("pc %#x does not share slot %d", pc, homeSlot(slotPCs[0]))
		}
	}
	rng := rand.New(rand.NewPCG(7, 11))
	recs := make([]trace.Record, 3*ingestChunk)
	for i := range recs {
		pc := slotPCs[i%len(slotPCs)]
		if i%7 == 3 {
			pc = 0x500000 + 4*uint64(rng.IntN(64)) // neighbors in other slots
		}
		recs[i] = trace.Record{PC: pc, Taken: rng.IntN(3) != 0}
	}
	pcs := make([]uint64, len(recs))
	for i, r := range recs {
		pcs[i] = r.PC
	}
	want := firstAppearance(pcs)

	sess := &session{}
	for i, pc := range pcs {
		if got, _ := sess.sites.ID(pc); got != want[pc] {
			t.Fatalf("record %d: sites.ID(%#x) = %d, first appearance gives %d", i, pc, got, want[pc])
		}
	}

	s, base := newTestServer(t, Config{})
	specs := []string{"bimode:b=11", "gshare:i=12,h=12"}
	id := createSession(t, base, specs...).ID
	for _, cut := range [][2]int{{0, 5}, {5, 1000}, {1000, 5000}, {5000, len(recs)}} {
		ingestText(t, base, id, textBody(recs[cut[0]:cut[1]]))
	}
	_, rep := rawReport(t, base, id)
	for i, spec := range specs {
		sameSpecReport(t, rep.Specs[i], referenceSpecReport(spec, recs, s.cfg.TopN))
	}
	s.mu.Lock()
	live := s.sessions[id]
	s.mu.Unlock()
	if live.lock(context.Background()) != nil {
		t.Fatal("locking the session")
	}
	defer live.unlock()
	if live.sites.Len() != len(want) {
		t.Fatalf("session has %d sites, want %d", live.sites.Len(), len(want))
	}
	for pc, st := range want {
		if got := live.sites.Keys()[st]; got != pc {
			t.Errorf("site %d is pc %#x, want %#x", st, got, pc)
		}
	}
}

// TestSiteCacheRollback: a text body that brings new PCs and is refused
// by the token bucket after two of its chunks applied rolls back; a body
// with other new PCs then takes the ids the refused one had used, and
// the refused body's retry must not be served a rescinded id. The
// session ends byte-equal to a control that never saw the refusal.
func TestSiteCacheRollback(t *testing.T) {
	now := time.Unix(1000, 0)
	_, base := newTestServer(t, Config{
		IngestRate:  1000,
		IngestBurst: 13000,
		Now:         func() time.Time { return now },
	})
	recs := testTrace(t, 14500).Records()
	// moved gives every PC of recs a new PC at or above high that shares
	// its site table home slot, so the bodies below fight over the slots
	// the first one filled.
	moved := func(recs []trace.Record, high uint64) []trace.Record {
		to, taken := map[uint64]uint64{}, map[uint64]bool{}
		out := slices.Clone(recs)
		for i := range out {
			pc := out[i].PC
			n, ok := to[pc]
			if !ok {
				for n = pc | high; homeSlot(n) != homeSlot(pc) || taken[n]; n += 4 {
				}
				to[pc], taken[n] = n, true
			}
			out[i].PC = n
		}
		return out
	}
	first := textBody(recs[:2000])
	refused := textBody(moved(recs[2000:14000], 1<<40))
	between := textBody(moved(recs[14000:], 1<<41))
	specs := []string{"bimode:b=11", "gshare:i=12,h=12"}

	id := createSession(t, base, specs...).ID
	ingestText(t, base, id, first)
	// 11000 tokens are left: two 4096-record chunks fit, the third does not.
	url := base + "/v1/sessions/" + id + "/branches"
	if resp := doJSON(t, "POST", url, strings.NewReader(refused), nil); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget body: status %d, want 429", resp.StatusCode)
	}
	now = now.Add(30 * time.Second)
	ingestText(t, base, id, between)
	now = now.Add(30 * time.Second)
	ingestText(t, base, id, refused)

	control := createSession(t, base, specs...).ID
	for _, body := range []string{first, between, refused} {
		now = now.Add(30 * time.Second)
		ingestText(t, base, control, body)
	}
	sameAsControl(t, base, id, control)
}

// slotBits is how many top bits of a PC's hash product homeSlot keeps:
// PCs with equal homeSlot share their home slot in every site table of
// up to 2^slotBits entries, far more than these tests' PCs fill.
const slotBits = 14

// homeSlot is pc's home slot in a 2^slotBits-entry trace.IDTable: the top
// bits of pc times 2^64 over the golden ratio, the table's Fibonacci hash.
func homeSlot(pc uint64) uint64 { return pc * 0x9e3779b97f4a7c15 >> (64 - slotBits) }

// tableSlotPCs returns n 4-byte-aligned PCs, with and without the
// backward flag, that all have the home slot of the first.
func tableSlotPCs(n int) []uint64 {
	pcs := []uint64{0x401000}
	for pc := uint64(0x401004); len(pcs) < n; pc += 4 {
		for _, p := range []uint64{pc, pc | 1<<63} {
			if homeSlot(p) == homeSlot(pcs[0]) && len(pcs) < n {
				pcs = append(pcs, p)
			}
		}
	}
	return pcs
}

// TestSiteCacheHashCollisions: PCs that share a site table home slot,
// alternating record by record with neighbors in other slots, each get
// their first-appearance id, directly from the session's site table and
// through text bodies whose reports must equal one Observe pass over the
// first-appearance numbering.
func TestSiteCacheHashCollisions(t *testing.T) {
	shared := tableSlotPCs(4)
	rng := rand.New(rand.NewPCG(7, 11))
	recs := make([]trace.Record, 3*ingestChunk)
	pcs := make([]uint64, len(recs))
	for i := range recs {
		pc := shared[i%len(shared)]
		if i%7 == 3 {
			pc = 0x500000 + 4*uint64(rng.IntN(64))
		}
		recs[i] = trace.Record{PC: pc, Taken: rng.IntN(3) != 0}
		pcs[i] = pc
	}
	want := firstAppearance(pcs)
	sess := &session{}
	for i, pc := range pcs {
		if got, _ := sess.sites.ID(pc); got != want[pc] {
			t.Fatalf("record %d: sites.ID(%#x) = %d, first appearance gives %d", i, pc, got, want[pc])
		}
	}

	s, base := newTestServer(t, Config{})
	specs := []string{"bimode:b=11", "gshare:i=12,h=12"}
	id := createSession(t, base, specs...).ID
	for _, cut := range [][2]int{{0, 5}, {5, 1000}, {1000, 5000}, {5000, len(recs)}} {
		ingestText(t, base, id, textBody(recs[cut[0]:cut[1]]))
	}
	_, rep := rawReport(t, base, id)
	for i, spec := range specs {
		sameSpecReport(t, rep.Specs[i], referenceSpecReport(spec, recs, s.cfg.TopN))
	}
}
