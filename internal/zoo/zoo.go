// Package zoo constructs predictors from compact spec strings, giving the
// command-line tools and examples a uniform way to name any predictor in
// the repository.
//
// Spec grammar: name[:key=val[,key=val...]]  — for example:
//
//	smith:a=12              Smith predictor, 2^12 counters
//	gshare:i=12,h=12        single-PHT gshare (paper's gshare.1PHT)
//	gshare:i=12,h=8         multi-PHT gshare (16 PHTs)
//	gselect:a=6,h=6         gselect
//	gag:h=12                GAg
//	gas:h=10,s=2            GAs with 4 PHTs
//	pag:b=10,h=10           PAg
//	pas:b=10,h=8,s=2        PAs
//	bimode:b=11             bi-mode, banks 2^11, defaults c=b, h=b
//	bimode:c=10,b=11,h=9    bi-mode, fully spelled out
//	trimode:b=10            tri-mode extension (third bank for WB branches)
//	filter:i=12,h=12,f=10,m=32  PHT-interference filter [ChangEversPatt96]
//	agree:i=12,h=12,b=10    agree predictor
//	gskew:b=10,h=10         gskew (add p=1 for e-gskew partial update)
//	yags:c=11,e=10,h=10,t=6 YAGS
//	alpha:s=12              Alpha 21264-style tournament (PAs | GAg)
//	loopgshare:i=12,l=8     gshare with a loop-termination side predictor
//	taken | not-taken | btfn  static predictors
//
// Family names are case-insensitive on lookup; their canonical
// (registered) form is lowercase. Each family lives in one register call
// below, which supplies both the factory and the family's declared
// black-box Geometry (the ground truth internal/fingerprint re-derives);
// the registry analyzer in internal/lint statically re-checks the
// registration contract — unique lowercase names, examples that belong to
// their family, builders that can never return a nil predictor with a
// nil error, and a statically present geometry function.
package zoo

import (
	"fmt"
	"strconv"
	"strings"

	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/predictor"
)

// params holds parsed key=value options with presence tracking so unknown
// and missing keys can be reported precisely.
type params struct {
	spec string
	vals map[string]int
	used map[string]bool
}

func parseParams(spec, opts string) (*params, error) {
	p := &params{spec: spec, vals: map[string]int{}, used: map[string]bool{}}
	if opts == "" {
		return p, nil
	}
	for _, kv := range strings.Split(opts, ",") {
		key, val, found := strings.Cut(kv, "=")
		if !found {
			return nil, fmt.Errorf("zoo: %q: option %q is not key=value", spec, kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("zoo: %q: option %q: %v", spec, kv, err)
		}
		if _, dup := p.vals[key]; dup {
			return nil, fmt.Errorf("zoo: %q: duplicate option %q", spec, key)
		}
		p.vals[key] = n
	}
	return p, nil
}

// get returns a required parameter.
func (p *params) get(key string) (int, error) {
	v, ok := p.vals[key]
	if !ok {
		return 0, fmt.Errorf("zoo: %q: missing required option %q", p.spec, key)
	}
	p.used[key] = true
	return v, nil
}

// getDefault returns an optional parameter.
func (p *params) getDefault(key string, def int) int {
	v, ok := p.vals[key]
	if !ok {
		return def
	}
	p.used[key] = true
	return v
}

// leftover reports the first unconsumed option, if any.
func (p *params) leftover() error {
	for k := range p.vals {
		if !p.used[k] {
			return fmt.Errorf("zoo: %q: unknown option %q", p.spec, k)
		}
	}
	return nil
}

// builder is one registered spec family: its constructor, its declared
// geometry, and the example specs Known advertises for it.
type builder struct {
	build    func(p *params) (predictor.Predictor, error)
	geom     func(p *params) (Geometry, error)
	examples []string
}

var (
	registry      = map[string]builder{}
	registryOrder []string
)

// register adds a spec family to the registry. The name must be its own
// lowercase form, non-empty and unique; every example must name this
// family; and the geometry function must produce a complete, valid
// Geometry for every example. These rules are enforced twice: here at
// package init, and statically by the registry analyzer in
// internal/lint, which also requires build to use explicit returns and
// never return nil, nil.
//
//bimode:registry
func register(name string, build func(*params) (predictor.Predictor, error), geom func(*params) (Geometry, error), examples ...string) {
	if name == "" || name != strings.ToLower(name) {
		panic(fmt.Sprintf("zoo: register %q: name must be non-empty lowercase", name))
	}
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("zoo: register %q: duplicate registration", name))
	}
	if build == nil {
		panic(fmt.Sprintf("zoo: register %q: nil builder", name))
	}
	if geom == nil {
		panic(fmt.Sprintf("zoo: register %q: nil geometry", name))
	}
	for _, ex := range examples {
		if fam, _, _ := strings.Cut(ex, ":"); fam != name {
			panic(fmt.Sprintf("zoo: register %q: example %q names a different family", name, ex))
		}
		// The declared geometry must be complete for every example the
		// registry advertises: evaluate it against the example's
		// parameters and validate the result, so a family cannot
		// register without machine-readable ground truth.
		_, opts, _ := strings.Cut(ex, ":")
		pr, err := parseParams(ex, opts)
		if err != nil {
			panic(fmt.Sprintf("zoo: register %q: example %q: %v", name, ex, err))
		}
		g, err := geom(pr)
		if err != nil {
			panic(fmt.Sprintf("zoo: register %q: example %q: geometry: %v", name, ex, err))
		}
		if err := g.Validate(); err != nil {
			panic(fmt.Sprintf("zoo: register %q: example %q: %v", name, ex, err))
		}
	}
	registry[name] = builder{build: build, geom: geom, examples: examples}
	registryOrder = append(registryOrder, name)
}

// staticGeometry is the shared geometry of the history-less static
// predictors: no table, no history, nothing for a probe to collide.
func staticGeometry(*params) (Geometry, error) {
	return Geometry{HistoryScope: ScopeNone, IndexHash: HashNone}, nil
}

func init() {
	// The static families are spelled out (rather than looped over) so the
	// registry analyzer can audit each name as a string constant.
	register("taken", func(*params) (predictor.Predictor, error) {
		return baselines.NewStatic("taken"), nil
	}, staticGeometry, "taken")
	register("not-taken", func(*params) (predictor.Predictor, error) {
		return baselines.NewStatic("not-taken"), nil
	}, staticGeometry, "not-taken")
	register("btfn", func(*params) (predictor.Predictor, error) {
		return baselines.NewStatic("btfn"), nil
	}, staticGeometry, "btfn")

	register("smith", func(pr *params) (predictor.Predictor, error) {
		a, err := pr.get("a")
		if err != nil {
			return nil, err
		}
		return baselines.NewSmith(a), nil
	}, func(pr *params) (Geometry, error) {
		a, err := pr.get("a")
		if err != nil {
			return Geometry{}, err
		}
		return Geometry{
			HistoryScope: ScopeNone, PCIndexBits: a,
			TableEntries: 1 << a, IndexHash: HashPC,
		}, nil
	}, "smith:a=12")

	register("gshare", func(pr *params) (predictor.Predictor, error) {
		i, err := pr.get("i")
		if err != nil {
			return nil, err
		}
		return baselines.NewGshare(i, pr.getDefault("h", i)), nil
	}, func(pr *params) (Geometry, error) {
		i, err := pr.get("i")
		if err != nil {
			return Geometry{}, err
		}
		return Geometry{
			HistoryBits: pr.getDefault("h", i), HistoryScope: ScopeGlobal,
			PCIndexBits: i, TableEntries: 1 << i, IndexHash: HashXor,
		}, nil
	}, "gshare:i=12,h=12", "gshare:i=12,h=8")

	// McFarling's gselect concatenates a branch-address bits with h
	// global-history bits: that is GAs with a set bits.
	register("gselect", func(pr *params) (predictor.Predictor, error) {
		a, err := pr.get("a")
		if err != nil {
			return nil, err
		}
		h, err := pr.get("h")
		if err != nil {
			return nil, err
		}
		return baselines.NewGAs(h, a), nil
	}, func(pr *params) (Geometry, error) {
		a, err := pr.get("a")
		if err != nil {
			return Geometry{}, err
		}
		h, err := pr.get("h")
		if err != nil {
			return Geometry{}, err
		}
		return Geometry{
			HistoryBits: h, HistoryScope: ScopeGlobal,
			PCIndexBits: a, TableEntries: 1 << (a + h), IndexHash: HashConcat,
		}, nil
	}, "gselect:a=6,h=6")

	register("gag", func(pr *params) (predictor.Predictor, error) {
		h, err := pr.get("h")
		if err != nil {
			return nil, err
		}
		return baselines.NewGAg(h), nil
	}, func(pr *params) (Geometry, error) {
		h, err := pr.get("h")
		if err != nil {
			return Geometry{}, err
		}
		return Geometry{
			HistoryBits: h, HistoryScope: ScopeGlobal,
			TableEntries: 1 << h, IndexHash: HashHistory,
		}, nil
	}, "gag:h=12")

	register("gas", func(pr *params) (predictor.Predictor, error) {
		h, err := pr.get("h")
		if err != nil {
			return nil, err
		}
		s, err := pr.get("s")
		if err != nil {
			return nil, err
		}
		return baselines.NewGAs(h, s), nil
	}, func(pr *params) (Geometry, error) {
		h, err := pr.get("h")
		if err != nil {
			return Geometry{}, err
		}
		s, err := pr.get("s")
		if err != nil {
			return Geometry{}, err
		}
		return Geometry{
			HistoryBits: h, HistoryScope: ScopeGlobal,
			PCIndexBits: s, TableEntries: 1 << (h + s), IndexHash: HashConcat,
		}, nil
	}, "gas:h=10,s=2")

	register("pag", func(pr *params) (predictor.Predictor, error) {
		b, err := pr.get("b")
		if err != nil {
			return nil, err
		}
		h, err := pr.get("h")
		if err != nil {
			return nil, err
		}
		return baselines.NewPAg(b, h), nil
	}, func(pr *params) (Geometry, error) {
		_, err := pr.get("b")
		if err != nil {
			return Geometry{}, err
		}
		h, err := pr.get("h")
		if err != nil {
			return Geometry{}, err
		}
		return Geometry{
			HistoryBits: h, PerAddrHistoryBits: h, HistoryScope: ScopePerAddr,
			TableEntries: 1 << h, IndexHash: HashHistory,
		}, nil
	}, "pag:b=10,h=10")

	register("pas", func(pr *params) (predictor.Predictor, error) {
		b, err := pr.get("b")
		if err != nil {
			return nil, err
		}
		h, err := pr.get("h")
		if err != nil {
			return nil, err
		}
		s, err := pr.get("s")
		if err != nil {
			return nil, err
		}
		return baselines.NewPAs(b, h, s), nil
	}, func(pr *params) (Geometry, error) {
		_, err := pr.get("b")
		if err != nil {
			return Geometry{}, err
		}
		h, err := pr.get("h")
		if err != nil {
			return Geometry{}, err
		}
		s, err := pr.get("s")
		if err != nil {
			return Geometry{}, err
		}
		return Geometry{
			HistoryBits: h, PerAddrHistoryBits: h, HistoryScope: ScopePerAddr,
			PCIndexBits: s, TableEntries: 1 << (h + s), IndexHash: HashConcat,
		}, nil
	}, "pas:b=10,h=8,s=2")

	register("bimode", func(pr *params) (predictor.Predictor, error) {
		b, err := pr.get("b")
		if err != nil {
			return nil, err
		}
		cfg := core.Config{
			ChoiceBits:  pr.getDefault("c", b),
			BankBits:    b,
			HistoryBits: pr.getDefault("h", b),
		}
		cfg.FullChoiceUpdate = pr.getDefault("fullchoice", 0) != 0
		cfg.UpdateBothBanks = pr.getDefault("bothbanks", 0) != 0
		bm, err := core.New(cfg)
		if err != nil {
			return nil, err
		}
		return bm, nil
	}, biModeGeometry, "bimode:b=11", "bimode:c=10,b=11,h=9")

	register("trimode", func(pr *params) (predictor.Predictor, error) {
		b, err := pr.get("b")
		if err != nil {
			return nil, err
		}
		cfg := core.Config{
			ChoiceBits:  pr.getDefault("c", b),
			BankBits:    b,
			HistoryBits: pr.getDefault("h", b),
		}
		tm, err := core.NewTriMode(cfg)
		if err != nil {
			return nil, err
		}
		return tm, nil
	}, biModeGeometry, "trimode:b=10")

	register("filter", func(pr *params) (predictor.Predictor, error) {
		i, err := pr.get("i")
		if err != nil {
			return nil, err
		}
		return baselines.NewFilter(i, pr.getDefault("h", i), pr.getDefault("f", i-2),
			uint8(pr.getDefault("m", 32))), nil
	}, func(pr *params) (Geometry, error) {
		i, err := pr.get("i")
		if err != nil {
			return Geometry{}, err
		}
		pr.getDefault("f", i-2)
		pr.getDefault("m", 32)
		return Geometry{
			HistoryBits: pr.getDefault("h", i), HistoryScope: ScopeGlobal,
			PCIndexBits: i, TableEntries: 1 << i, IndexHash: HashXor,
			HasChoice: true,
		}, nil
	}, "filter:i=12,h=12,f=10,m=32")

	register("agree", func(pr *params) (predictor.Predictor, error) {
		i, err := pr.get("i")
		if err != nil {
			return nil, err
		}
		return baselines.NewAgree(i, pr.getDefault("h", i), pr.getDefault("b", i)), nil
	}, func(pr *params) (Geometry, error) {
		i, err := pr.get("i")
		if err != nil {
			return Geometry{}, err
		}
		pr.getDefault("b", i)
		return Geometry{
			HistoryBits: pr.getDefault("h", i), HistoryScope: ScopeGlobal,
			PCIndexBits: i, TableEntries: 1 << i, IndexHash: HashXor,
			HasChoice: true,
		}, nil
	}, "agree:i=12,h=12,b=10")

	register("gskew", func(pr *params) (predictor.Predictor, error) {
		b, err := pr.get("b")
		if err != nil {
			return nil, err
		}
		return baselines.NewGskew(b, pr.getDefault("h", b), pr.getDefault("p", 0) != 0), nil
	}, func(pr *params) (Geometry, error) {
		b, err := pr.get("b")
		if err != nil {
			return Geometry{}, err
		}
		pr.getDefault("p", 0)
		// PCIndexBits is 2b, not b: the skewing functions are bijective
		// per bank, so a single-bit PC difference never collides in a
		// majority of banks until the whole 2b-bit hash input repeats.
		return Geometry{
			HistoryBits: pr.getDefault("h", b), HistoryScope: ScopeGlobal,
			PCIndexBits: 2 * b, TableEntries: 3 << b, IndexHash: HashSkew,
		}, nil
	}, "gskew:b=10,h=10", "gskew:b=10,h=10,p=1")

	register("yags", func(pr *params) (predictor.Predictor, error) {
		c, err := pr.get("c")
		if err != nil {
			return nil, err
		}
		e, err := pr.get("e")
		if err != nil {
			return nil, err
		}
		return baselines.NewYAGS(c, e, pr.getDefault("h", e), pr.getDefault("t", 6)), nil
	}, func(pr *params) (Geometry, error) {
		c, err := pr.get("c")
		if err != nil {
			return Geometry{}, err
		}
		e, err := pr.get("e")
		if err != nil {
			return Geometry{}, err
		}
		pr.getDefault("t", 6)
		return Geometry{
			HistoryBits: pr.getDefault("h", e), HistoryScope: ScopeGlobal,
			PCIndexBits: c, TableEntries: 1 << c, IndexHash: HashXor,
			HasChoice: true, Tagged: true,
		}, nil
	}, "yags:c=11,e=10,h=10,t=6")

	register("alpha", func(pr *params) (predictor.Predictor, error) {
		s, err := pr.get("s")
		if err != nil {
			return nil, err
		}
		return baselines.NewAlpha21264Style(s), nil
	}, func(pr *params) (Geometry, error) {
		s, err := pr.get("s")
		if err != nil {
			return Geometry{}, err
		}
		// The global (GAg) side reaches s outcomes; the per-address
		// (PAs) side reaches s-2 through 4 sets, whose PHT of
		// 2^((s-2)+2) counters is the structure a per-address stride
		// probe resolves.
		return Geometry{
			HistoryBits: s, PerAddrHistoryBits: s - 2, HistoryScope: ScopeHybrid,
			PCIndexBits: 2, TableEntries: 1 << s, IndexHash: HashConcat,
			HasChoice: true,
		}, nil
	}, "alpha:s=12")

	register("loopgshare", func(pr *params) (predictor.Predictor, error) {
		i, err := pr.get("i")
		if err != nil {
			return nil, err
		}
		return baselines.NewWithLoopOverride(
			baselines.NewGshare(i, pr.getDefault("h", i)), pr.getDefault("l", i-4)), nil
	}, func(pr *params) (Geometry, error) {
		i, err := pr.get("i")
		if err != nil {
			return Geometry{}, err
		}
		pr.getDefault("l", i-4)
		return Geometry{
			HistoryBits: pr.getDefault("h", i), HistoryScope: ScopeGlobal,
			PCIndexBits: i, TableEntries: 1 << i, IndexHash: HashXor,
			HasLoop: true,
		}, nil
	}, "loopgshare:i=12,l=8")
}

// biModeGeometry is shared by the bimode and trimode registrations,
// whose observable structure is identical: xor-indexed direction banks
// of 2^b entries behind a PC-indexed choice mechanism.
func biModeGeometry(pr *params) (Geometry, error) {
	b, err := pr.get("b")
	if err != nil {
		return Geometry{}, err
	}
	// A stride only completes a collision once it defeats both the
	// direction banks (b bits) and the choice table (c bits): below
	// that, whichever structure still separates the pair steers the
	// colliding branch to a counter of its own.
	pc := maxInt(b, pr.getDefault("c", b))
	pr.getDefault("fullchoice", 0)
	pr.getDefault("bothbanks", 0)
	return Geometry{
		HistoryBits: pr.getDefault("h", b), HistoryScope: ScopeGlobal,
		PCIndexBits: pc, TableEntries: 1 << pc, IndexHash: HashXor,
		HasChoice: true,
	}, nil
}

// New builds a predictor from a spec string. Construction panics from
// invalid widths are converted to errors.
func New(spec string) (p predictor.Predictor, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("zoo: %q: %v", spec, r)
		}
	}()

	name, opts, _ := strings.Cut(spec, ":")
	pr, perr := parseParams(spec, opts)
	if perr != nil {
		return nil, perr
	}
	b, ok := registry[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("zoo: unknown predictor %q (see package zoo docs for the spec grammar)", name)
	}
	p, err = b.build(pr)
	if err != nil {
		return nil, err
	}
	if p == nil {
		// Unreachable for registrations that pass the registry analyzer;
		// kept as a runtime backstop so a broken builder fails loudly.
		return nil, fmt.Errorf("zoo: %q: builder returned no predictor", spec)
	}
	if err := pr.leftover(); err != nil {
		return nil, err
	}
	return p, nil
}

// MustNew is New that panics on error; for specs fixed at compile time.
func MustNew(spec string) predictor.Predictor {
	p, err := New(spec)
	if err != nil {
		panic(err)
	}
	return p
}

// Known lists the example specs of every registered family, in
// registration order; used for help text and the differential test grids.
func Known() []string {
	var out []string
	for _, name := range registryOrder {
		out = append(out, registry[name].examples...)
	}
	return out
}
