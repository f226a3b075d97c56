package zoo

import (
	"fmt"
	"strings"
)

// Geometry is the declared black-box structure of a predictor spec: the
// attributes that internal/fingerprint recovers from the outside with
// crafted probe traces, written down as machine-readable ground truth.
// Every register call supplies a geometry function alongside its factory,
// so a family cannot enter the registry without declaring its structure;
// register validates the declaration against every example spec at
// package init, and the registry analyzer in internal/lint checks the
// geometry argument is statically present at each call site.
//
// The fields describe the predictor as an external prober sees it, not
// its full internal inventory (CostBits covers the latter):
//
//   - HistoryBits is the deepest branch-outcome history that influences
//     a prediction — the largest L for which the repeating pattern
//     T^L F is predictable.
//   - HistoryScope says whose outcomes that history holds: "global"
//     (one register shared by all branches), "peraddr" (a per-branch
//     register), "hybrid" (components of both), or "none".
//   - PerAddrHistoryBits is the per-branch history depth for peraddr
//     and hybrid scopes (for a pure global predictor it is 0). A hybrid
//     can have PerAddrHistoryBits < HistoryBits: the Alpha 21264-style
//     tournament reaches 12 outcomes through its global side but only
//     10 through its per-address side.
//   - PCIndexBits is the stride resolution: the smallest k such that
//     two branches 4*2^k apart can be made to collide in the same
//     counter. For a skewed predictor this is the hash input width
//     (twice the per-bank index width), because single-bit PC
//     differences never collide in a majority of banks below that.
//   - TableEntries is the number of second-level counters one branch's
//     index function can address — the capacity a collision probe is
//     colliding inside. For multi-bank organizations it is the total
//     across banks (gskew: 3·2^b); for bi-mode it is one direction
//     bank (the structure the stride sweep resolves; the choice table
//     is reported through HasChoice).
//   - IndexHash names how PC and history combine into that index:
//     "none" (no table), "pc" (PC only), "xor" (folded), "concat"
//     (disjoint fields), "history" (history only), "skew"
//     (per-bank skewing functions).
//   - HasChoice marks a bias-separating mechanism (bi-mode/tri-mode
//     choice banks, agree bias bits, filter run counters, YAGS choice +
//     exception caches, tournament meta) that lets two opposite-biased
//     branches share a folded index without destructive interference.
//   - HasLoop marks a loop-termination side structure that captures
//     any short repeating pattern regardless of history depth.
//   - Tagged marks tagged (cache-like) components whose capacity a
//     pure index probe cannot see.
type Geometry struct {
	// Family is the registered family name the geometry belongs to.
	Family string `json:"family"`
	// HistoryBits is the deepest observable outcome history.
	HistoryBits int `json:"history_bits"`
	// PerAddrHistoryBits is the per-branch history depth (peraddr and
	// hybrid scopes only).
	PerAddrHistoryBits int `json:"peraddr_history_bits,omitempty"`
	// HistoryScope is "none", "global", "peraddr" or "hybrid".
	HistoryScope string `json:"history_scope"`
	// PCIndexBits is the smallest colliding stride exponent.
	PCIndexBits int `json:"pc_index_bits"`
	// TableEntries is the addressable second-level counter capacity.
	TableEntries int `json:"table_entries"`
	// IndexHash is "none", "pc", "xor", "concat", "history" or "skew".
	IndexHash string `json:"index_hash"`
	// HasChoice marks a bias-separating choice mechanism.
	HasChoice bool `json:"has_choice"`
	// HasLoop marks a loop-termination side predictor.
	HasLoop bool `json:"has_loop,omitempty"`
	// Tagged marks tagged components invisible to index probes.
	Tagged bool `json:"tagged,omitempty"`
}

// History scopes.
const (
	ScopeNone    = "none"
	ScopeGlobal  = "global"
	ScopePerAddr = "peraddr"
	ScopeHybrid  = "hybrid"
)

// Index hash classes.
const (
	HashNone    = "none"
	HashPC      = "pc"
	HashXor     = "xor"
	HashConcat  = "concat"
	HashHistory = "history"
	HashSkew    = "skew"
)

var validScopes = map[string]bool{ScopeNone: true, ScopeGlobal: true, ScopePerAddr: true, ScopeHybrid: true}
var validHashes = map[string]bool{HashNone: true, HashPC: true, HashXor: true, HashConcat: true, HashHistory: true, HashSkew: true}

// Validate checks that a declared geometry is complete and internally
// consistent; register calls it for every example spec at package init,
// so an incomplete declaration cannot ship.
func (g Geometry) Validate() error {
	if !validScopes[g.HistoryScope] {
		return fmt.Errorf("geometry: history scope %q is not one of none/global/peraddr/hybrid", g.HistoryScope)
	}
	if !validHashes[g.IndexHash] {
		return fmt.Errorf("geometry: index hash %q is not one of none/pc/xor/concat/history/skew", g.IndexHash)
	}
	if (g.HistoryScope == ScopeNone) != (g.HistoryBits == 0) {
		return fmt.Errorf("geometry: history scope %q inconsistent with %d history bits", g.HistoryScope, g.HistoryBits)
	}
	if (g.IndexHash == HashNone) != (g.TableEntries == 0) {
		return fmt.Errorf("geometry: index hash %q inconsistent with %d table entries", g.IndexHash, g.TableEntries)
	}
	perAddr := g.HistoryScope == ScopePerAddr || g.HistoryScope == ScopeHybrid
	if perAddr && g.PerAddrHistoryBits <= 0 {
		return fmt.Errorf("geometry: scope %q requires per-address history bits", g.HistoryScope)
	}
	if !perAddr && g.PerAddrHistoryBits != 0 {
		return fmt.Errorf("geometry: scope %q must not declare per-address history bits", g.HistoryScope)
	}
	if g.IndexHash == HashPC && g.HistoryBits != 0 {
		return fmt.Errorf("geometry: pc-indexed predictor cannot consult %d history bits", g.HistoryBits)
	}
	if g.PCIndexBits < 0 {
		return fmt.Errorf("geometry: negative pc index bits %d", g.PCIndexBits)
	}
	return nil
}

// maxInt is a tiny helper for geometry arithmetic.
func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Describe returns the declared geometry of a spec string, evaluated
// over the spec's parameters exactly as New evaluates its factory.
func Describe(spec string) (Geometry, error) {
	name, opts, _ := strings.Cut(spec, ":")
	pr, err := parseParams(spec, opts)
	if err != nil {
		return Geometry{}, err
	}
	b, ok := registry[strings.ToLower(name)]
	if !ok {
		return Geometry{}, fmt.Errorf("zoo: unknown predictor %q (see package zoo docs for the spec grammar)", name)
	}
	g, err := b.geom(pr)
	if err != nil {
		return Geometry{}, err
	}
	g.Family = strings.ToLower(name)
	if err := g.Validate(); err != nil {
		return Geometry{}, fmt.Errorf("zoo: %q: %v", spec, err)
	}
	return g, nil
}
