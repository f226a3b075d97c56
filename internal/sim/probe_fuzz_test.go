package sim_test

// Differential fuzzing of the probe kernels: for fuzzed bi-mode and
// gshare configurations and record streams, ProbeBatch must write
// exactly the rows the per-record protocol gives — ProbeLookup, then
// Predict, then Update — and leave the predictor in the same state as
// that loop and as RunBatch. The stream goes through the kernel in two
// calls, cut at a fuzzed point, so state carried between calls is
// covered too. Seeds: testdata/fuzz/FuzzProbeBatchVsProbe.

import (
	"bytes"
	"errors"
	"testing"

	"bimode/internal/baselines"
	"bimode/internal/core"
	"bimode/internal/predictor"
	"bimode/internal/trace"
)

// probeFuzzRecords decodes two bytes per record: 14 bits of PC and the
// outcome bit.
func probeFuzzRecords(data []byte) []trace.Record {
	recs := make([]trace.Record, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		pc := (uint64(data[i]) | uint64(data[i+1]&0x3f)<<8) << 2
		recs = append(recs, trace.Record{PC: pc, Taken: data[i+1]>>7 == 1})
	}
	return recs
}

// probeFuzzPredictor builds the fuzzed configuration: bi-mode (with its
// ablation flags) for even families, gshare for odd ones.
func probeFuzzPredictor(family, w1, w2, w3, flags uint8) predictor.Predictor {
	if family%2 == 0 {
		cfg := core.Config{
			ChoiceBits:       int(w1 % 11),
			BankBits:         int(w2%10) + 1,
			FullChoiceUpdate: flags&1 != 0,
			UpdateBothBanks:  flags&2 != 0,
		}
		cfg.HistoryBits = int(w3) % (cfg.BankBits + 1)
		return core.MustNew(cfg)
	}
	index := int(w1 % 13)
	return baselines.NewGshare(index, int(w2)%(index+1))
}

func FuzzProbeBatchVsProbe(f *testing.F) {
	f.Add(uint8(0), uint8(5), uint8(5), uint8(5), uint8(0), uint16(7), []byte("seed stream: taken and not"))
	f.Add(uint8(1), uint8(10), uint8(6), uint8(0), uint8(0), uint16(3), bytes.Repeat([]byte{0xaa, 0x91, 0x13, 0x37}, 30))
	f.Add(uint8(2), uint8(0), uint8(1), uint8(0), uint8(3), uint16(0), []byte{0x00, 0x80, 0x00, 0x00, 0xff, 0xff})
	f.Add(uint8(3), uint8(0), uint8(0), uint8(0), uint8(0), uint16(1), []byte{0x01, 0x80, 0x02, 0x00})
	f.Fuzz(func(t *testing.T, family, w1, w2, w3, flags uint8, split uint16, data []byte) {
		recs := probeFuzzRecords(data)
		cut := int(split) % (len(recs) + 1)

		kernel := probeFuzzPredictor(family, w1, w2, w3, flags)
		rows := make([]predictor.ProbeRow, len(recs))
		kernel.(predictor.ProbeBatcher).ProbeBatch(recs[:cut], rows[:cut])
		kernel.(predictor.ProbeBatcher).ProbeBatch(recs[cut:], rows[cut:])

		ref := probeFuzzPredictor(family, w1, w2, w3, flags)
		misses := 0
		for i, r := range recs {
			look := ref.(predictor.Probe).ProbeLookup(r.PC)
			want := predictor.ProbeRow{
				CounterID:   int32(look.CounterID),
				Bank:        int32(look.Bank),
				ChoiceTaken: look.ChoiceTaken,
				HasChoice:   look.HasChoice,
				Miss:        ref.Predict(r.PC) != r.Taken,
			}
			ref.Update(r.PC, r.Taken)
			if rows[i] != want {
				t.Fatalf("%s, record %d of %d (cut %d): kernel row %+v, per-record row %+v",
					ref.Name(), i, len(recs), cut, rows[i], want)
			}
			if want.Miss {
				misses++
			}
		}
		state := kernel.(predictor.Snapshotter).Snapshot(nil)
		if !bytes.Equal(state, ref.(predictor.Snapshotter).Snapshot(nil)) {
			t.Fatalf("%s: final state diverged from the per-record loop", ref.Name())
		}

		batch := probeFuzzPredictor(family, w1, w2, w3, flags)
		if got := batch.(predictor.BatchRunner).RunBatch(recs); got != misses {
			t.Fatalf("%s: RunBatch missed %d, the rows %d", ref.Name(), got, misses)
		}
		if !bytes.Equal(state, batch.(predictor.Snapshotter).Snapshot(nil)) {
			t.Fatalf("%s: final state diverged from RunBatch", ref.Name())
		}
	})
}

// TestProbeBatchShortRows: a kernel given fewer rows than records panics
// with predictor.ErrShortRows before touching its state.
func TestProbeBatchShortRows(t *testing.T) {
	recs := probeFuzzRecords([]byte("short rows, long records"))
	for _, p := range []predictor.Predictor{core.MustNew(core.DefaultConfig(6)), baselines.NewGshare(8, 8)} {
		before := p.(predictor.Snapshotter).Snapshot(nil)
		func() {
			defer func() {
				if err, _ := recover().(error); !errors.Is(err, predictor.ErrShortRows) {
					t.Errorf("%s: panic %v, want ErrShortRows", p.Name(), err)
				}
			}()
			p.(predictor.ProbeBatcher).ProbeBatch(recs, make([]predictor.ProbeRow, len(recs)-1))
		}()
		if !bytes.Equal(before, p.(predictor.Snapshotter).Snapshot(nil)) {
			t.Errorf("%s: a refused ProbeBatch changed the state", p.Name())
		}
	}
}
