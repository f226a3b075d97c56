package core

// Differential fuzzing of the fused batched kernel: for arbitrary
// configurations and outcome streams, RunBatch must agree exactly — miss
// count, final table state, final history — with the capability-free
// Predict/Update protocol loop (what sim.RunGeneric runs per record). The
// seed corpus in testdata/fuzz is committed so CI's fuzz smoke replays it
// on every push.

import (
	"bytes"
	"testing"

	"bimode/internal/trace"
)

// fuzzRecords decodes two bytes per record: 14 bits of PC and the
// outcome bit.
func fuzzRecords(data []byte) []trace.Record {
	recs := make([]trace.Record, 0, len(data)/2)
	for i := 0; i+1 < len(data); i += 2 {
		pc := (uint64(data[i]) | uint64(data[i+1]&0x3f)<<8) << 2
		recs = append(recs, trace.Record{PC: pc, Taken: data[i+1]>>7 == 1})
	}
	return recs
}

func FuzzRunBatchVsGeneric(f *testing.F) {
	f.Add(uint8(5), uint8(5), uint8(5), uint8(0), []byte("seed stream: taken and not"))
	f.Add(uint8(0), uint8(1), uint8(0), uint8(1), []byte{0x00, 0x80, 0x00, 0x00, 0xff, 0xff})
	f.Add(uint8(9), uint8(3), uint8(200), uint8(2), bytes.Repeat([]byte{0xaa, 0x91}, 40))
	f.Add(uint8(4), uint8(8), uint8(8), uint8(3), bytes.Repeat([]byte{0x13, 0x37, 0x00, 0xfe}, 33))
	f.Fuzz(func(t *testing.T, cb, bb, hb, flags uint8, data []byte) {
		cfg := Config{
			ChoiceBits:       int(cb % 11),
			BankBits:         int(bb%10) + 1,
			HistoryBits:      0,
			FullChoiceUpdate: flags&1 != 0,
			UpdateBothBanks:  flags&2 != 0,
		}
		cfg.HistoryBits = int(hb) % (cfg.BankBits + 1)
		recs := fuzzRecords(data)

		fused := MustNew(cfg)
		gotMiss := fused.RunBatch(recs)

		// The reference: the base predictor protocol, one Predict and one
		// Update per record, exactly sim.RunGeneric's per-record loop.
		ref := MustNew(cfg)
		wantMiss := 0
		for _, r := range recs {
			if ref.Predict(r.PC) != r.Taken {
				wantMiss++
			}
			ref.Update(r.PC, r.Taken)
		}

		if gotMiss != wantMiss {
			t.Fatalf("%s over %d records: RunBatch missed %d, generic %d",
				fused.Name(), len(recs), gotMiss, wantMiss)
		}
		if fused.ghr.Value() != ref.ghr.Value() {
			t.Fatalf("history diverged: %#x vs %#x", fused.ghr.Value(), ref.ghr.Value())
		}
		if !bytes.Equal(fused.Snapshot(nil), ref.Snapshot(nil)) {
			t.Fatalf("%s: final table state diverged from the generic loop", fused.Name())
		}
	})
}
