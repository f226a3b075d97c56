package synth

import (
	"bytes"
	"encoding/json"
	"testing"
)

// FuzzReadProfile: ReadProfile reads the user-defined profiles that
// cmd/bimodesim and cmd/tracegen take as a .json workload. Any
// input either fails with an error or gives a profile that passes
// Validate, and an accepted profile re-encodes and reads back to itself.
// No workload is built: Statics is unbounded, and a generator would
// allocate per static site.
func FuzzReadProfile(f *testing.F) {
	f.Add([]byte(`{"name": "mine", "statics": 2000, "dynamic": 1000000, "frac_loop": 0.15, "frac_correlated": 0.25, "frac_weak": 0.1}`))
	f.Add([]byte(`{"name": "x", "statics": 10, "dynamic": 100, "weak_hi": 0.3, "strong_hi": 0.9, "loop_jitter": 7}`))
	f.Add([]byte(`{"name": "x", "statics": 10, "dynamic": 100, "frac_weak": 2}`))
	f.Add([]byte(`{"name": "x", "statics": 10, "dynamic": 100, "bogus_knob": 1}`))
	f.Add([]byte(`{"name": "x", "statics": 1, "dynamic": 1, "zipf_theta": -0, "corr_noise": 1e300} trailing`))
	for _, p := range Profiles() {
		data, err := json.Marshal(profileJSON(p))
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadProfile(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted profile fails Validate: %v\n%+v", err, p)
		}
		enc, err := json.Marshal(profileJSON(p))
		if err != nil {
			t.Fatalf("re-encoding %+v: %v", p, err)
		}
		back, err := ReadProfile(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-reading %s: %v", enc, err)
		}
		if back != p {
			t.Fatalf("round trip changed the profile:\n got %+v\nwant %+v", back, p)
		}
	})
}
