package synth

import (
	"encoding/json"
	"fmt"
	"io"
)

// profileJSON is the on-disk schema for user-defined workload profiles.
// Its fields are the Profile struct's, in order, so the two convert into
// each other; zero-valued knobs take the same defaults the built-in
// benchmarks use.
type profileJSON struct {
	Name           string  `json:"name"`
	Suite          string  `json:"suite,omitempty"`
	Statics        int     `json:"statics"`
	Dynamic        int     `json:"dynamic"`
	Seed           uint64  `json:"seed,omitempty"`
	FracLoop       float64 `json:"frac_loop,omitempty"`
	FracCorrelated float64 `json:"frac_correlated,omitempty"`
	FracPattern    float64 `json:"frac_pattern,omitempty"`
	FracWeak       float64 `json:"frac_weak,omitempty"`
	TakenShare     float64 `json:"taken_share,omitempty"`
	StrongLo       float64 `json:"strong_lo,omitempty"`
	StrongHi       float64 `json:"strong_hi,omitempty"`
	WeakLo         float64 `json:"weak_lo,omitempty"`
	WeakHi         float64 `json:"weak_hi,omitempty"`
	WeakRun        int     `json:"weak_run,omitempty"`
	LoopTrip       int     `json:"loop_trip,omitempty"`
	LoopJitter     int     `json:"loop_jitter,omitempty"`
	BodyMean       float64 `json:"body_mean,omitempty"`
	CorrK          int     `json:"corr_k,omitempty"`
	CorrNoise      float64 `json:"corr_noise,omitempty"`
	ZipfTheta      float64 `json:"zipf_theta,omitempty"`
	InputNote      string  `json:"input_note,omitempty"`
}

// ReadProfile parses a user-defined profile from JSON, applies the same
// defaults the built-in benchmarks use for unset knobs, and validates the
// result. A minimal profile needs only name, statics and dynamic:
//
//	{"name": "mine", "statics": 2000, "dynamic": 1000000,
//	 "frac_loop": 0.15, "frac_correlated": 0.25, "frac_weak": 0.1}
func ReadProfile(r io.Reader) (Profile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var pj profileJSON
	if err := dec.Decode(&pj); err != nil {
		return Profile{}, fmt.Errorf("synth: parsing profile: %w", err)
	}
	p := ApplyDefaults(Profile(pj))
	if p.Seed == 0 {
		p.Seed = 0x5EEDF11E
	}
	if err := p.Validate(); err != nil {
		return Profile{}, err
	}
	return p, nil
}
