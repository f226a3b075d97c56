package workloads

import (
	"testing"

	"bimode/internal/baselines"
	"bimode/internal/synth"
	"bimode/internal/trace"
)

func TestNamesCoverBothFamilies(t *testing.T) {
	names := Names()
	if len(names) != 14+9 {
		t.Fatalf("want 23 workloads, got %d: %v", len(names), names)
	}
	seen := map[string]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate workload name %q", n)
		}
		seen[n] = true
	}
	for _, want := range []string{"gcc", "go", "video_play", "lzw", "playout"} {
		if !seen[want] {
			t.Fatalf("missing workload %q", want)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("spice", Options{}); err == nil {
		t.Fatalf("unknown workload must fail")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Errorf("MustGet must panic on unknown workload")
			}
		}()
		MustGet("spice", Options{})
	}()
}

func TestGetSyntheticWithOptions(t *testing.T) {
	src, err := Get("compress", Options{Dynamic: 1000, Seed: 77})
	if err != nil {
		t.Fatal(err)
	}
	stats := trace.Collect(src)
	if stats.DynamicBranches != 1000 {
		t.Fatalf("dynamic override ignored: %d", stats.DynamicBranches)
	}
	// A different seed must give a different stream.
	other := MustGet("compress", Options{Dynamic: 1000, Seed: 78})
	s1, s2 := src.Stream(), other.Stream()
	diff := false
	for {
		r1, ok1 := s1.Next()
		r2, ok2 := s2.Next()
		if !ok1 || !ok2 {
			break
		}
		if r1.Taken != r2.Taken {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatalf("different seeds should give different outcome streams")
	}
}

func TestSuite(t *testing.T) {
	if got := len(Suite(synth.SuiteSPEC)); got != 6 {
		t.Fatalf("SPEC suite size %d, want 6", got)
	}
	if got := len(Suite(synth.SuiteIBS)); got != 8 {
		t.Fatalf("IBS suite size %d, want 8", got)
	}
}

func TestBackwardBitMatchesBaselines(t *testing.T) {
	// synth and workloads duplicate the constant to avoid an import; the
	// BTFN predictor depends on them agreeing.
	if baselines.BackwardBit != 1<<63 {
		t.Fatalf("BackwardBit moved; update synth.backwardBit and the tracer")
	}
}

func TestProgramsDeterministicAndSized(t *testing.T) {
	for _, name := range []string{"lzw", "expr", "minilisp", "sortbench", "playout", "huffman", "regexish"} {
		name := name
		t.Run(name, func(t *testing.T) {
			const n = 30000
			a := MustGet(name, Options{Dynamic: n})
			b := MustGet(name, Options{Dynamic: n})
			sa, sb := a.Stream(), b.Stream()
			count := 0
			for {
				ra, oka := sa.Next()
				rb, okb := sb.Next()
				if oka != okb {
					t.Fatalf("nondeterministic length")
				}
				if !oka {
					break
				}
				if ra != rb {
					t.Fatalf("nondeterministic record at %d", count)
				}
				count++
				if int(ra.Static) >= a.StaticCount() {
					t.Fatalf("static %d out of range %d", ra.Static, a.StaticCount())
				}
			}
			if count != n {
				t.Fatalf("got %d branches, want %d", count, n)
			}
		})
	}
}

func TestProgramsExerciseBothDirections(t *testing.T) {
	for _, name := range []string{"lzw", "expr", "minilisp", "sortbench", "playout", "huffman", "regexish"} {
		stats := trace.Collect(MustGet(name, Options{Dynamic: 20000}))
		if stats.TakenRate() < 0.05 || stats.TakenRate() > 0.95 {
			t.Errorf("%s taken rate %v is degenerate", name, stats.TakenRate())
		}
		if stats.StaticBranches < 5 {
			t.Errorf("%s has only %d static sites", name, stats.StaticBranches)
		}
	}
}

func TestTracerSiteStability(t *testing.T) {
	tr := newTracer(100)
	a1 := tr.Site("x", false)
	b := tr.Site("y", true)
	a2 := tr.Site("x", false)
	if a1.id != a2.id || a1.pc != a2.pc {
		t.Fatalf("re-registering a site must return the same identity")
	}
	if b.id == a1.id {
		t.Fatalf("distinct sites must get distinct ids")
	}
	if b.pc&(1<<63) == 0 {
		t.Fatalf("backward site must carry the backward bit")
	}
	if !a1.Taken(true) || a1.Taken(false) {
		t.Fatalf("Taken must pass the condition through")
	}
	if len(tr.recs) != 2 {
		t.Fatalf("tracer must record each decision")
	}
}

func TestTracerFull(t *testing.T) {
	tr := newTracer(3)
	s := tr.Site("s", false)
	for i := 0; i < 3; i++ {
		if tr.Full() {
			t.Fatalf("tracer full too early at %d", i)
		}
		s.Taken(true)
	}
	if !tr.Full() {
		t.Fatalf("tracer must report full at its limit")
	}
}
