// Package analysis implements the measurement machinery of the paper's
// Section 4: substream bias classification, per-counter bias breakdowns
// (Figures 5 and 6), bias-class change counting (Table 4), the worked
// normalized-count example (Table 3), and the attribution of
// mispredictions to bias classes (Figures 7 and 8), all from one
// simulation pass per predictor (RunStudy).
//
// The central object is the substream s(i,c): the sequence of outcomes
// that static branch i sends to second-level counter c. Each substream is
// assigned one of three bias classes (paper Section 4.1):
//
//	ST  - strongly taken:     taken >= 90% of the time
//	SNT - strongly not-taken: not-taken >= 90% of the time
//	WB  - weakly biased:      everything else
package analysis

// Class is a substream bias class.
type Class uint8

// The three bias classes.
const (
	// WB is the weakly biased class.
	WB Class = iota
	// ST is the strongly taken class.
	ST
	// SNT is the strongly not-taken class.
	SNT
)

// String returns the paper's abbreviation for the class.
func (c Class) String() string {
	switch c {
	case ST:
		return "ST"
	case SNT:
		return "SNT"
	default:
		return "WB"
	}
}

// StrongThreshold is the paper's 90% bias-class boundary.
const StrongThreshold = 0.9

// Classify assigns a bias class to a substream with the given outcome
// counts.
func Classify(taken, total int) Class {
	if total == 0 {
		return WB
	}
	rate := float64(taken) / float64(total)
	switch {
	case rate >= StrongThreshold:
		return ST
	case rate <= 1-StrongThreshold:
		return SNT
	default:
		return WB
	}
}

// Substream accumulates one s(i,c).
type Substream struct {
	// Static is the static branch identifier i.
	Static uint32
	// Counter is the second-level counter identifier c.
	Counter int
	// Len is |s(i,c)|, the number of outcomes in the substream.
	Len int
	// Taken is the number of taken outcomes.
	Taken int
}

// Class returns the substream's bias class.
func (s Substream) Class() Class { return Classify(s.Taken, s.Len) }

// CounterBias is the per-counter aggregation behind Figures 5 and 6: the
// dynamic counts of each bias class arriving at one counter, split into
// dominant and non-dominant strongly biased classes.
type CounterBias struct {
	// Counter is the counter identifier.
	Counter int
	// Total is the number of dynamic accesses to the counter.
	Total int
	// STCount, SNTCount and WBCount are dynamic accesses from substreams
	// of each class.
	STCount, SNTCount, WBCount int
}

// Dominant returns the dynamic count of the more frequent strongly biased
// class at this counter (paper Section 4.1).
func (c CounterBias) Dominant() int {
	if c.STCount >= c.SNTCount {
		return c.STCount
	}
	return c.SNTCount
}

// NonDominant returns the dynamic count of the less frequent strongly
// biased class.
func (c CounterBias) NonDominant() int {
	if c.STCount >= c.SNTCount {
		return c.SNTCount
	}
	return c.STCount
}

// DominantClass returns which strongly biased class dominates.
func (c CounterBias) DominantClass() Class {
	if c.STCount >= c.SNTCount {
		return ST
	}
	return SNT
}

// Fractions returns the dominant, non-dominant and WB shares of the
// counter's accesses (the paper's "normalized dynamic counts").
func (c CounterBias) Fractions() (dominant, nonDominant, wb float64) {
	if c.Total == 0 {
		return 0, 0, 0
	}
	t := float64(c.Total)
	return float64(c.Dominant()) / t, float64(c.NonDominant()) / t, float64(c.WBCount) / t
}
