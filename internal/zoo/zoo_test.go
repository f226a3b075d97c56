package zoo

import (
	"strings"
	"testing"

	"bimode/internal/predictor"
)

func TestAllKnownSpecsBuild(t *testing.T) {
	for _, spec := range Known() {
		p, err := New(spec)
		if err != nil {
			t.Errorf("spec %q: %v", spec, err)
			continue
		}
		// Exercise the predictor lightly.
		pc := uint64(0x1230)
		for i := 0; i < 10; i++ {
			p.Predict(pc)
			p.Update(pc, i%3 == 0)
		}
		p.Reset()
		if p.CostBits() < 0 {
			t.Errorf("spec %q: negative cost", spec)
		}
	}
}

// TestSimulationRungs pins the simulation tier each family reaches
// (DESIGN.md §7): its RunBatch kernel, or else Predict/Update. A family
// that silently loses its RunBatch would still pass every equivalence
// oracle, only slower; this names the fallback instead.
func TestSimulationRungs(t *testing.T) {
	want := map[string]string{
		"smith": "batch", "gshare": "batch", "gag": "batch", "gas": "batch",
		"pag": "batch", "pas": "batch", "bimode": "batch", "trimode": "batch",
		"gskew": "batch", "agree": "batch", "filter": "batch", "alpha": "batch", "gselect": "batch",
		"yags": "batch", "loopgshare": "generic",
		"taken": "generic", "not-taken": "generic", "btfn": "generic",
	}
	for _, spec := range Known() {
		family, _, _ := strings.Cut(spec, ":")
		p := MustNew(spec)
		rung := "generic"
		if _, ok := p.(predictor.BatchRunner); ok {
			rung = "batch"
		}
		w, ok := want[family]
		if !ok {
			t.Errorf("spec %q: family %q has no expected rung; add it here and to DESIGN.md §7", spec, family)
			continue
		}
		if rung != w {
			t.Errorf("spec %q runs on the %s rung, want %s", spec, rung, w)
		}
	}
}

func TestSpecDefaults(t *testing.T) {
	g, err := New("gshare:i=10")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(g.Name(), "1PHT") {
		t.Fatalf("gshare history should default to the index width: %s", g.Name())
	}
	b, err := New("bimode:b=9")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name() != "bi-mode(9c,9b,9h)" {
		t.Fatalf("bimode defaults wrong: %s", b.Name())
	}
}

func TestSpecAblationFlags(t *testing.T) {
	b, err := New("bimode:b=8,fullchoice=1,bothbanks=1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.Name(), "fullchoice") || !strings.Contains(b.Name(), "bothbanks") {
		t.Fatalf("ablation flags not honored: %s", b.Name())
	}
}

func TestSpecErrors(t *testing.T) {
	bad := []string{
		"",                   // unknown empty name
		"oracle",             // unknown predictor
		"smith",              // missing a
		"smith:a",            // not key=value
		"smith:a=x",          // non-integer
		"smith:a=4,a=5",      // duplicate
		"smith:a=4,z=1",      // unknown option
		"gshare:i=4,h=9",     // h > i
		"gshare:i=99",        // width out of range
		"bimode:b=0",         // bank width invalid
		"gselect:a=5",        // missing h
		"gselect:a=6,h=0",    // GAs needs at least one history bit
		"pas:b=4,h=4",        // missing s
		"yags:c=4",           // missing e
		"gskew:b=1",          // bank too small
		"agree:i=4,h=4,b=99", // bias width invalid
		"bimode:b=8,c=40",    // choice width invalid
	}
	for _, spec := range bad {
		if _, err := New(spec); err == nil {
			t.Errorf("spec %q should fail", spec)
		}
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("MustNew must panic on bad spec")
		}
	}()
	MustNew("nonsense")
}

func TestStaticSpecs(t *testing.T) {
	for _, spec := range []string{"taken", "not-taken", "btfn"} {
		p, err := New(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		var _ predictor.Predictor = p
	}
}

func TestGeometryDeclaredForEveryKnownSpec(t *testing.T) {
	seen := map[string]bool{}
	for _, spec := range Known() {
		g, err := Describe(spec)
		if err != nil {
			t.Errorf("spec %q: no declared geometry: %v", spec, err)
			continue
		}
		if err := g.Validate(); err != nil {
			t.Errorf("spec %q: %v", spec, err)
		}
		fam, _, _ := strings.Cut(spec, ":")
		if g.Family != fam {
			t.Errorf("spec %q: geometry names family %q", spec, g.Family)
		}
		seen[fam] = true
	}
	// The registry check: every registered family is covered by the
	// example sweep above, so none can ship without valid geometry.
	for _, fam := range registryOrder {
		if !seen[fam] {
			t.Errorf("family %q registered without a geometry-checked example", fam)
		}
	}
}

func TestGeometryValues(t *testing.T) {
	cases := []struct {
		spec string
		want Geometry
	}{
		{"gshare:i=12,h=8", Geometry{Family: "gshare", HistoryBits: 8, HistoryScope: ScopeGlobal,
			PCIndexBits: 12, TableEntries: 1 << 12, IndexHash: HashXor}},
		{"bimode:c=10,b=11,h=9", Geometry{Family: "bimode", HistoryBits: 9, HistoryScope: ScopeGlobal,
			PCIndexBits: 11, TableEntries: 1 << 11, IndexHash: HashXor, HasChoice: true}},
		{"gselect:a=6,h=6", Geometry{Family: "gselect", HistoryBits: 6, HistoryScope: ScopeGlobal,
			PCIndexBits: 6, TableEntries: 1 << 12, IndexHash: HashConcat}},
		{"pas:b=10,h=8,s=2", Geometry{Family: "pas", HistoryBits: 8, PerAddrHistoryBits: 8,
			HistoryScope: ScopePerAddr, PCIndexBits: 2, TableEntries: 1 << 10, IndexHash: HashConcat}},
		{"gskew:b=10,h=10", Geometry{Family: "gskew", HistoryBits: 10, HistoryScope: ScopeGlobal,
			PCIndexBits: 20, TableEntries: 3 << 10, IndexHash: HashSkew}},
		{"alpha:s=12", Geometry{Family: "alpha", HistoryBits: 12, PerAddrHistoryBits: 10,
			HistoryScope: ScopeHybrid, PCIndexBits: 2, TableEntries: 1 << 12, IndexHash: HashConcat, HasChoice: true}},
		{"smith:a=12", Geometry{Family: "smith", HistoryScope: ScopeNone,
			PCIndexBits: 12, TableEntries: 1 << 12, IndexHash: HashPC}},
		{"taken", Geometry{Family: "taken", HistoryScope: ScopeNone, IndexHash: HashNone}},
	}
	for _, c := range cases {
		got, err := Describe(c.spec)
		if err != nil {
			t.Errorf("Describe(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("Describe(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
}

func TestGeometryErrors(t *testing.T) {
	for _, spec := range []string{"gshare", "nosuch:a=1", "gshare:i=twelve"} {
		if _, err := Describe(spec); err == nil {
			t.Errorf("Describe(%q) succeeded; want error", spec)
		}
	}
}
