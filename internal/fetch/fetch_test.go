package fetch

import (
	"strings"
	"testing"

	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/synth"
	"bimode/internal/trace"
)

func TestBTBBasics(t *testing.T) {
	b := NewBTB(4, 2, 8)
	if _, _, ok := b.Lookup(0x100); ok {
		t.Fatalf("empty BTB must miss")
	}
	b.Update(0x100, 0x500, trace.KindJump)
	target, kind, ok := b.Lookup(0x100)
	if !ok || target != 0x500 || kind != trace.KindJump {
		t.Fatalf("lookup after update wrong: %x %v %v", target, kind, ok)
	}
	// Target refresh.
	b.Update(0x100, 0x600, trace.KindJump)
	if target, _, _ := b.Lookup(0x100); target != 0x600 {
		t.Fatalf("update must refresh the target")
	}
	if b.HitRate() <= 0 {
		t.Fatalf("hit rate must be positive")
	}
}

func TestBTBLRUReplacement(t *testing.T) {
	b := NewBTB(0, 2, 16) // one set, two ways
	b.Update(0x100, 1, trace.KindJump)
	b.Update(0x200, 2, trace.KindJump)
	b.Lookup(0x100) // make 0x100 most recent
	b.Update(0x300, 3, trace.KindJump)
	if _, _, ok := b.Lookup(0x200); ok {
		t.Fatalf("LRU way (0x200) must have been evicted")
	}
	if _, _, ok := b.Lookup(0x100); !ok {
		t.Fatalf("MRU way (0x100) must survive")
	}
}

func TestBTBAliasing(t *testing.T) {
	b := NewBTB(2, 1, 4) // tiny: tags 4 bits
	a := uint64(0x100)
	// Same set, same partial tag: pc differing only beyond set+tag bits.
	alias := a + 4<<(2+4)<<2
	b.Update(a, 0xAAA, trace.KindJump)
	if target, _, ok := b.Lookup(alias); ok && target == 0xAAA {
		t.Logf("aliased hit with wrong target, as real partial-tag BTBs do")
	}
}

func TestBTBResetAndCost(t *testing.T) {
	b := NewBTB(3, 2, 8)
	b.Update(0x40, 1, trace.KindCall)
	b.Reset()
	if _, _, ok := b.Lookup(0x40); ok {
		t.Fatalf("reset must clear entries")
	}
	if b.CostBits() != 8*2*(1+8+32+3+8) {
		t.Fatalf("cost = %d", b.CostBits())
	}
}

func TestBTBPanics(t *testing.T) {
	cases := []func(){
		func() { NewBTB(-1, 2, 8) },
		func() { NewBTB(4, 0, 8) },
		func() { NewBTB(4, 2, 0) },
	}
	for i, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d must panic", i)
				}
			}()
			c()
		}()
	}
}

func TestRASLIFO(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Fatalf("empty stack must not predict")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for _, want := range []uint64{3, 2, 1} {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Fatalf("pop = %d/%v, want %d", got, ok, want)
		}
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if got, _ := r.Pop(); got != 3 {
		t.Fatalf("top must be 3")
	}
	if got, _ := r.Pop(); got != 2 {
		t.Fatalf("next must be 2")
	}
	if _, ok := r.Pop(); ok {
		t.Fatalf("entry 1 was overwritten; stack must be empty")
	}
}

func TestRASResetCostPanic(t *testing.T) {
	r := NewRAS(8)
	r.Push(5)
	r.Reset()
	if _, ok := r.Pop(); ok {
		t.Fatalf("reset must empty the stack")
	}
	if r.CostBits() != 8*32 {
		t.Fatalf("cost = %d", r.CostBits())
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("bad size must panic")
		}
	}()
	NewRAS(0)
}

// craftedCF builds a control-flow stream exercising every kind with
// known-correct behavior.
type craftedCF struct{ recs []trace.ControlRecord }

func (c craftedCF) Name() string { return "crafted" }
func (c craftedCF) ControlFlow() trace.ControlStream {
	return &craftedStream{recs: c.recs}
}

type craftedStream struct {
	recs []trace.ControlRecord
	pos  int
}

func (s *craftedStream) Next() (trace.ControlRecord, bool) {
	if s.pos >= len(s.recs) {
		return trace.ControlRecord{}, false
	}
	r := s.recs[s.pos]
	s.pos++
	return r, true
}

func TestEngineOnCraftedStream(t *testing.T) {
	// call -> return pair, repeated: after warm-up the engine should be
	// bubble-free (perfect RAS, warm BTB, biased branch).
	var recs []trace.ControlRecord
	for i := 0; i < 50; i++ {
		recs = append(recs,
			trace.ControlRecord{PC: 0x100, Kind: trace.KindBranch, Taken: true, Target: 0x180},
			trace.ControlRecord{PC: 0x200, Kind: trace.KindCall, Taken: true, Target: 0x800},
			trace.ControlRecord{PC: 0x900, Kind: trace.KindReturn, Taken: true, Target: 0x204},
		)
	}
	eng := NewEngine(Config{
		Direction:  baselines.NewSmith(8),
		BTBSetBits: 6, BTBWays: 2, BTBTagBits: 8,
		RASSize: 8,
	})
	m := eng.Run(craftedCF{recs: recs})
	if m.Events != 150 || m.Conditionals != 50 {
		t.Fatalf("counts wrong: %+v", m)
	}
	// Cold misses only: one direction hiccup at most, two BTB cold
	// misses, zero RAS misses (returns always match pushes).
	if m.RASMisses != 0 {
		t.Fatalf("RAS must be perfect on matched call/return: %d misses", m.RASMisses)
	}
	if m.BTBMisses > 3 {
		t.Fatalf("only cold BTB misses expected, got %d", m.BTBMisses)
	}
	if m.DirectionMisses > 1 {
		t.Fatalf("biased branch should be learned, %d misses", m.DirectionMisses)
	}
	if m.BubbleCycles == 0 {
		t.Fatalf("cold-start bubbles expected")
	}
	if !strings.Contains(m.String(), "bubbles") {
		t.Fatalf("String incomplete")
	}
}

func TestEngineRASUnderflowCounted(t *testing.T) {
	recs := []trace.ControlRecord{
		{PC: 0x900, Kind: trace.KindReturn, Taken: true, Target: 0x204},
	}
	eng := NewEngine(Config{Direction: baselines.NewSmith(4), BTBSetBits: 4, BTBWays: 1, BTBTagBits: 8, RASSize: 4})
	m := eng.Run(craftedCF{recs: recs})
	if m.RASMisses != 1 {
		t.Fatalf("underflowed return must count as a RAS miss")
	}
}

func TestEngineOnSyntheticControlFlow(t *testing.T) {
	p, _ := synth.ProfileByName("perl")
	w := synth.MustWorkload(p.WithDynamic(60000))
	eng := NewEngine(Config{
		Direction:  core.MustNew(core.DefaultConfig(10)),
		BTBSetBits: 9, BTBWays: 4, BTBTagBits: 8,
		RASSize: 16,
	})
	m := eng.Run(w)
	if m.Events != 60000 {
		t.Fatalf("events = %d", m.Events)
	}
	if m.Conditionals < m.Events/2 {
		t.Fatalf("conditionals should dominate the stream: %d of %d", m.Conditionals, m.Events)
	}
	if m.BTBHitRate < 0.8 {
		t.Fatalf("warm BTB hit rate %v too low", m.BTBHitRate)
	}
	if rate := m.DirectionRate(); rate <= 0 || rate > 0.3 {
		t.Fatalf("direction rate %v implausible", rate)
	}
	// Returns must overwhelmingly match the stack.
	if m.RASMisses > m.Events/50 {
		t.Fatalf("too many RAS misses: %d", m.RASMisses)
	}
}

func TestEngineDeterministic(t *testing.T) {
	p, _ := synth.ProfileByName("sdet")
	w := synth.MustWorkload(p.WithDynamic(20000))
	mk := func() Metrics {
		eng := NewEngine(Config{Direction: baselines.NewGshare(10, 10), BTBSetBits: 8, BTBWays: 2, BTBTagBits: 8, RASSize: 16})
		return eng.Run(w)
	}
	if mk() != mk() {
		t.Fatalf("engine runs must be deterministic")
	}
}

func TestEnginePanicsWithoutDirection(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatalf("missing direction predictor must panic")
		}
	}()
	NewEngine(Config{BTBSetBits: 4, BTBWays: 1, BTBTagBits: 8, RASSize: 4})
}

func TestEngineCost(t *testing.T) {
	eng := NewEngine(Config{Direction: baselines.NewSmith(8), BTBSetBits: 4, BTBWays: 2, BTBTagBits: 8, RASSize: 8})
	want := baselines.NewSmith(8).CostBits() + NewBTB(4, 2, 8).CostBits() + NewRAS(8).CostBits()
	if eng.CostBits() != want {
		t.Fatalf("cost = %d, want %d", eng.CostBits(), want)
	}
}
