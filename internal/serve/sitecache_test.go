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
// ids the session's site map gives.
func firstAppearance(pcs []uint64) map[uint64]uint32 {
	ids := map[uint64]uint32{}
	for _, pc := range pcs {
		if _, ok := ids[pc]; !ok {
			ids[pc] = uint32(len(ids))
		}
	}
	return ids
}

// TestSiteCacheCollisions: PCs that share a cache slot, alternating
// record by record, within one body and across bodies, each get the id
// the site map gives — directly from siteFor, and through text bodies
// whose reports must equal one Observe pass over the first-appearance
// numbering.
func TestSiteCacheCollisions(t *testing.T) {
	slotPCs := hashSlotPCs(6)
	for _, pc := range slotPCs {
		if siteSlot(pc) != siteSlot(slotPCs[0]) {
			t.Fatalf("pc %#x does not share slot %d", pc, siteSlot(slotPCs[0]))
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

	sess := &session{sites: map[uint64]uint32{}}
	for i, pc := range pcs {
		if got := sess.siteFor(pc); got != want[pc] {
			t.Fatalf("record %d: siteFor(%#x) = %d, the map gives %d", i, pc, got, want[pc])
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
	for pc, st := range want {
		if live.sites[pc] != st || live.pcs[st] != pc {
			t.Errorf("pc %#x: site map %d, pcs[%d] = %#x; want id %d", pc, live.sites[pc], st, live.pcs[st], st)
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
	// its site cache slot, so the bodies below fight over the slots the
	// first one filled.
	moved := func(recs []trace.Record, high uint64) []trace.Record {
		to, taken := map[uint64]uint64{}, map[uint64]bool{}
		out := slices.Clone(recs)
		for i := range out {
			pc := out[i].PC
			n, ok := to[pc]
			if !ok {
				for n = pc | high; siteSlot(n) != siteSlot(pc) || taken[n]; n += 4 {
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

// hashSlotPCs returns n 4-byte-aligned PCs, with and without the
// backward flag, that all index the site cache slot of the first.
func hashSlotPCs(n int) []uint64 {
	pcs := []uint64{0x401000}
	for pc := uint64(0x401004); len(pcs) < n; pc += 4 {
		for _, p := range []uint64{pc, pc | 1<<63} {
			if siteSlot(p) == siteSlot(pcs[0]) && len(pcs) < n {
				pcs = append(pcs, p)
			}
		}
	}
	return pcs
}

// TestSiteCacheHashCollisions: PCs that share a slot under siteSlot,
// alternating record by record with neighbors in other slots, each get
// the id the site map gives, directly from siteFor and through text
// bodies whose reports must equal one Observe pass over the
// first-appearance numbering.
func TestSiteCacheHashCollisions(t *testing.T) {
	shared := hashSlotPCs(4)
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
	sess := &session{sites: map[uint64]uint32{}}
	for i, pc := range pcs {
		if got := sess.siteFor(pc); got != want[pc] {
			t.Fatalf("record %d: siteFor(%#x) = %d, the map gives %d", i, pc, got, want[pc])
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

// TestSiteSlotUsesOddSlots: 8-aligned PCs, the only kind the gcc
// profile makes, reach odd slots as well as even ones, and 4096
// consecutive ones fill well over the half of the cache that the
// alignment bits alone would leave them.
func TestSiteSlotUsesOddSlots(t *testing.T) {
	used := map[uint64]bool{}
	odd := 0
	for i := range uint64(siteCacheSize) {
		slot := siteSlot(0x400000 + 8*i)
		if slot >= siteCacheSize {
			t.Fatalf("slot %d out of range", slot)
		}
		if !used[slot] && slot%2 == 1 {
			odd++
		}
		used[slot] = true
	}
	if odd == 0 || len(used) <= siteCacheSize/2 {
		t.Fatalf("%d 8-aligned PCs use %d slots, %d of them odd; want odd slots and more than %d",
			siteCacheSize, len(used), odd, siteCacheSize/2)
	}
}
