package trace

import (
	"testing"
)

func sample() []Record {
	return []Record{
		{PC: 0x1000, Static: 0, Taken: true},
		{PC: 0x1008, Static: 1, Taken: false},
		{PC: 0x1000, Static: 0, Taken: true},
		{PC: 1 << 63, Static: 2, Taken: false}, // backward-bit PC
	}
}

func TestSliceStream(t *testing.T) {
	st := NewSliceStream(sample())
	var got []Record
	for {
		r, ok := st.Next()
		if !ok {
			break
		}
		got = append(got, r)
	}
	if len(got) != 4 || got[0].PC != 0x1000 || got[3].Static != 2 {
		t.Fatalf("stream replay wrong: %+v", got)
	}
	if _, ok := st.Next(); ok {
		t.Fatalf("exhausted stream must keep returning ok=false")
	}
}

func TestMemorySource(t *testing.T) {
	m := NewMemory("demo", 3, sample())
	if m.Name() != "demo" || m.StaticCount() != 3 || m.Len() != 4 {
		t.Fatalf("memory metadata wrong")
	}
	// Two streams must be identical and independent.
	s1, s2 := m.Stream(), m.Stream()
	r1, _ := s1.Next()
	r1b, _ := s1.Next()
	r2, _ := s2.Next()
	if r1 != r2 || r1b == r2 {
		t.Fatalf("streams must be independent replays")
	}
}

func TestMaterialize(t *testing.T) {
	m := NewMemory("demo", 3, sample())
	m2 := Materialize(m)
	if m2.Len() != m.Len() || m2.Name() != "demo" {
		t.Fatalf("materialize must preserve contents")
	}
}

func TestCollectStats(t *testing.T) {
	s := Collect(NewMemory("demo", 3, sample()))
	if s.DynamicBranches != 4 || s.StaticBranches != 3 || s.Taken != 2 {
		t.Fatalf("stats = %+v", s)
	}
	if s.TakenRate() != 0.5 {
		t.Fatalf("taken rate = %v", s.TakenRate())
	}
	if (Stats{}).TakenRate() != 0 {
		t.Fatalf("empty stats taken rate must be 0")
	}
}

func TestZigzag(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 12345, -12345, 1 << 40, -(1 << 40)} {
		if got := unzigzag(zigzag(v)); got != v {
			t.Fatalf("zigzag roundtrip of %d gave %d", v, got)
		}
	}
}
