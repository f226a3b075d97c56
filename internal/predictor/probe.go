package predictor

import (
	"errors"
	"fmt"

	"bimode/internal/trace"
)

// Lookup describes the internal decision path of one prediction: which
// second-level counter the predictor is about to consult and, for schemes
// with a steering structure (bi-mode's choice predictor, tri-mode's
// confidence counter, agree's bias bit), which way that structure voted.
// It is the per-branch sample the observability tier in internal/sim
// aggregates into a Report.
type Lookup struct {
	// CounterID is the dense identifier of the direction counter
	// Predict(pc) would consult right now, in [0, Probe.NumCounters()),
	// or -1 when the predictor has no identifiable counter.
	CounterID int
	// Bank is the predictor-specific bank the lookup selects (bi-mode:
	// core.BankNotTaken/BankTaken; tri-mode adds the WB bank; gshare: the
	// PHT number the address bits select), or -1 for single-table schemes.
	Bank int
	// ChoiceTaken is the direction the steering structure voted; only
	// meaningful when HasChoice is true.
	ChoiceTaken bool
	// HasChoice reports whether the predictor has a steering structure
	// whose vote ChoiceTaken carries.
	HasChoice bool
}

// Probe is the optional observability capability, the introspective rung
// beside the one BatchRunner forms for speed: a predictor whose
// prediction comes from an identifiable second-level counter, and that
// can describe, BEFORE Update, the internal decision path the next
// Predict(pc) would take. The Section 4 analysis uses the counter to
// attribute each dynamic branch to the counter it exercised, building the
// per-counter substream statistics behind Figures 5-8 and Tables 3-4.
// ProbeLookup must be read-only — it must not touch counters or history —
// so instrumented and uninstrumented runs of the same stream leave the
// predictor in identical states.
type Probe interface {
	// ProbeLookup reports the decision path Predict(pc) would take now.
	ProbeLookup(pc uint64) Lookup

	// NumCounters returns the number of distinct counter identifiers
	// ProbeLookup reports.
	NumCounters() int
}

// ProbeRow is one record's observation: the Lookup ProbeLookup would
// report for the record's PC before its update, in fixed-width fields,
// and whether the prediction missed. A strip of rows is what the
// observability tier accounts in one pass.
type ProbeRow struct {
	// CounterID is Lookup.CounterID (-1 when there is none).
	CounterID int32
	// Bank is Lookup.Bank.
	Bank int32
	// ChoiceTaken and HasChoice are Lookup.ChoiceTaken and
	// Lookup.HasChoice.
	ChoiceTaken bool
	HasChoice   bool
	// Miss reports whether Predict(pc) disagreed with the outcome.
	Miss bool
}

// ProbeBatcher is the optional batched form of Probe, the rung where the
// observability ladder meets the speed ladder: RunBatch that also writes,
// for every record, the row ProbeLookup, Predict and Update would have
// produced. ProbeBatch(recs, rows) must leave the predictor exactly as
// RunBatch(recs) does, and rows[i] must equal the row of ProbeLookup
// then Predict then Update on recs[i] in order (FuzzProbeBatchVsProbe
// and the observer's differential test enforce this).
type ProbeBatcher interface {
	// ProbeBatch runs every record in order and fills rows[i] for
	// recs[i]. It panics with ErrShortRows when rows is shorter than
	// recs, before touching any state.
	ProbeBatch(recs []trace.Record, rows []ProbeRow)
}

// ErrShortRows is the panic value of a ProbeBatch given fewer rows than
// records. It is a variable, not a literal, so the kernels' guard
// allocates nothing.
var ErrShortRows = errors.New("predictor: ProbeBatch given fewer rows than records")

// Fill steps p over recs in order and writes rows[i] for recs[i], the
// row ProbeLookup, Predict and Update give. A ProbeBatcher fills with its
// kernel; any other predictor is stepped per record: the lookup of its
// Probe (CounterID and Bank -1 when it is not one), then Predict and
// Update. A lookup whose CounterID is NumCounters or more panics, so
// that no caller indexes its per-counter state with it, and rows shorter
// than recs panic with ErrShortRows.
//
// *filled counts the rows written so far: when the predictor panics at
// record i, the panic goes on with *filled == i when stepped per record
// and 0 under a kernel, so a caller that defers its accounting can cover
// exactly the rows written before the failure.
func Fill(p Predictor, recs []trace.Record, rows []ProbeRow, filled *int) {
	*filled = 0
	if batch, ok := p.(ProbeBatcher); ok {
		batch.ProbeBatch(recs, rows)
		*filled = len(recs)
		return
	}
	if len(rows) < len(recs) {
		panic(ErrShortRows)
	}
	probe, _ := p.(Probe)
	counters := 0
	if probe != nil {
		counters = probe.NumCounters()
	}
	for i := range recs {
		rec := &recs[i]
		look := Lookup{CounterID: -1, Bank: -1}
		if probe != nil {
			look = probe.ProbeLookup(rec.PC)
			if look.CounterID >= counters {
				panic(fmt.Sprintf("predictor: %s looked up counter %d of %d", p.Name(), look.CounterID, counters))
			}
		}
		pred := p.Predict(rec.PC)
		p.Update(rec.PC, rec.Taken)
		// Field by field: a composite literal would be built on the stack
		// and copied in wider words than it was written in, which stalls
		// store forwarding on every record.
		row := &rows[i]
		row.CounterID = int32(look.CounterID)
		row.Bank = int32(look.Bank)
		row.ChoiceTaken = look.ChoiceTaken
		row.HasChoice = look.HasChoice
		row.Miss = pred != rec.Taken
		*filled = i + 1
	}
}
