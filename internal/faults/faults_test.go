package faults_test

import (
	"errors"
	"testing"
	"time"

	"bimode/internal/faults"
	"bimode/internal/predictor"
	"bimode/internal/sim"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

func testTrace() *trace.Memory {
	recs := make([]trace.Record, 500)
	for i := range recs {
		recs[i] = trace.Record{PC: uint64(0x1000 + 4*(i%7)), Static: uint32(i % 7), Taken: i%3 != 0}
	}
	return trace.NewMemory("unit", 7, recs)
}

func drain(t *testing.T, src trace.Source) []trace.Record {
	t.Helper()
	var out []trace.Record
	st := src.Stream()
	for {
		r, ok := st.Next()
		if !ok {
			return out
		}
		out = append(out, r)
	}
}

func TestTruncate(t *testing.T) {
	mem := testTrace()
	got := drain(t, faults.Truncate(mem, 123))
	if len(got) != 123 {
		t.Fatalf("truncated stream yielded %d records, want 123", len(got))
	}
	for i, r := range got {
		if r != mem.Records()[i] {
			t.Fatalf("record %d altered by truncation", i)
		}
	}
	if n := len(drain(t, faults.Truncate(mem, 10_000))); n != mem.Len() {
		t.Fatalf("over-length truncate yielded %d records, want all %d", n, mem.Len())
	}
	if n := len(drain(t, faults.Truncate(mem, 0))); n != 0 {
		t.Fatalf("zero truncate yielded %d records", n)
	}
}

func TestPanicAfter(t *testing.T) {
	mem := testTrace()
	src := faults.PanicAfter(mem, 42, "unit fault")
	st := src.Stream()
	for i := 0; i < 42; i++ {
		if _, ok := st.Next(); !ok {
			t.Fatalf("stream ended at %d, before the injected panic", i)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("record 43 did not panic")
		}
	}()
	st.Next()
}

func TestStallPreservesRecords(t *testing.T) {
	mem := testTrace()
	got := drain(t, faults.Stall(mem, 100, time.Microsecond))
	if len(got) != mem.Len() {
		t.Fatalf("stalled stream yielded %d records, want %d", len(got), mem.Len())
	}
	for i, r := range got {
		if r != mem.Records()[i] {
			t.Fatalf("record %d altered by stalling", i)
		}
	}
}

func TestCorruptDeterministic(t *testing.T) {
	mem := testTrace()
	run := func() (recs []trace.Record, panicked bool) {
		defer func() {
			if recover() != nil {
				panicked = true
			}
		}()
		return drain(t, faults.Corrupt(mem, 99)), false
	}
	recsA, panicA := run()
	recsB, panicB := run()
	if panicA != panicB || len(recsA) != len(recsB) {
		t.Fatalf("same corruption position produced different outcomes: %v/%d vs %v/%d",
			panicA, len(recsA), panicB, len(recsB))
	}
	for i := range recsA {
		if recsA[i] != recsB[i] {
			t.Fatalf("record %d differs between identical corruptions", i)
		}
	}
	if !panicA {
		same := len(recsA) == mem.Len()
		if same {
			for i := range recsA {
				if recsA[i] != mem.Records()[i] {
					same = false
					break
				}
			}
		}
		if same {
			t.Fatalf("corruption changed nothing: decode succeeded with identical records")
		}
	}
}

// TestCorruptColumnarAlwaysDetected pins the injector's contract over
// BMC1: for MANY corruption positions across the encoded file, the
// stream panics with an error that unwraps to a located
// *trace.ColumnarDecodeError — never yields records, altered or not.
func TestCorruptColumnarAlwaysDetected(t *testing.T) {
	mem := testTrace()
	for pos := int64(0); pos < 200; pos += 7 {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("pos %d: corrupted columnar stream did not panic", pos)
				}
				err, ok := r.(error)
				if !ok {
					t.Fatalf("pos %d: panic value %v is not an error", pos, r)
				}
				var dec *trace.ColumnarDecodeError
				if !errors.As(err, &dec) {
					t.Fatalf("pos %d: %v does not unwrap to a *trace.ColumnarDecodeError", pos, err)
				}
			}()
			faults.Corrupt(mem, pos).Stream()
		}()
	}
}

// TestCorruptColumnarSurfacesAsResultErr proves the injector composes
// with the runtime: a corrupted columnar cell fails with Result.Err
// while its neighbors finish untouched.
func TestCorruptColumnarSurfacesAsResultErr(t *testing.T) {
	mem := testTrace()
	mk := func() predictor.Predictor { return zoo.MustNew("smith:a=12") }
	jobs := []sim.Job{
		{Make: mk, Source: mem},
		{Make: mk, Source: faults.Corrupt(mem, 99)},
		{Make: mk, Source: mem},
	}
	for _, workers := range []int{0, 4} {
		res := sim.NewScheduler(workers).RunAll(jobs)
		if res[1].Err == nil {
			t.Errorf("workers=%d: corrupted columnar cell succeeded: %+v", workers, res[1])
		}
		if res[0].Err != nil || res[2].Err != nil || res[0] != res[2] {
			t.Errorf("workers=%d: healthy neighbors disturbed: %+v / %+v", workers, res[0], res[2])
		}
	}
}
