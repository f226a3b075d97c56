package synth

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"bimode/internal/trace"
)

func TestReadProfileMinimal(t *testing.T) {
	in := `{"name": "mine", "statics": 500, "dynamic": 20000, "frac_weak": 0.1}`
	p, err := ReadProfile(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if p.Name != "mine" || p.Statics != 500 || p.Dynamic != 20000 {
		t.Fatalf("fields wrong: %+v", p)
	}
	// Defaults applied.
	if p.WeakRun == 0 || p.ZipfTheta == 0 || p.StrongLo == 0 || p.Seed == 0 {
		t.Fatalf("defaults missing: %+v", p)
	}
	// And the profile must actually generate.
	stats := trace.Collect(MustWorkload(p))
	if stats.DynamicBranches != 20000 {
		t.Fatalf("generated %d branches", stats.DynamicBranches)
	}
}

func TestReadProfileRejects(t *testing.T) {
	cases := []string{
		`not json`,
		`{"name": "x", "statics": 0, "dynamic": 100}`,
		`{"name": "x", "statics": 10, "dynamic": 100, "frac_weak": 2}`,
		`{"name": "x", "statics": 10, "dynamic": 100, "bogus_knob": 1}`,
		`{"statics": 10, "dynamic": 100}`,
	}
	for _, in := range cases {
		if _, err := ReadProfile(strings.NewReader(in)); err == nil {
			t.Errorf("profile %q should be rejected", in)
		}
	}
}

func TestProfileJSONRoundTrip(t *testing.T) {
	orig, _ := ProfileByName("gcc")
	data, err := json.Marshal(profileJSON(orig))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadProfile(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got != orig {
		t.Fatalf("roundtrip changed profile:\n got %+v\nwant %+v", got, orig)
	}
}
