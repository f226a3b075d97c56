package trace_test

import (
	"bytes"
	"testing"

	"bimode/internal/synth"
	"bimode/internal/trace"
)

// decodeBenchRecords is the benchmark trace's length: 4 Mi records, the
// size of the replay-columnar workload's file, far past any cache.
const decodeBenchRecords = 4 << 20

// BenchmarkColumnarDecode drains a gcc-profile BMC1 trace of
// decodeBenchRecords records and reports the time per record:
//
//   - full: BlockStream, every column decoded and checked;
//   - projected: BranchBlocks over blocks that a full pass has already
//     checked, so PC and Taken alone are decoded.
func BenchmarkColumnarDecode(b *testing.B) {
	p, ok := synth.ProfileByName("gcc")
	if !ok {
		b.Fatal("suite profile gcc missing")
	}
	mem := trace.Materialize(synth.MustWorkload(p.WithDynamic(decodeBenchRecords)))
	var buf bytes.Buffer
	if err := trace.WriteColumnar(&buf, mem); err != nil {
		b.Fatal(err)
	}
	c, err := trace.OpenColumnar(buf.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	mem = nil
	b.Run("full", func(b *testing.B) { benchDrain(b, c, c.BlockStream) })
	b.Run("projected", func(b *testing.B) {
		drain(b, c.BlockStream()) // checks every block's static column
		benchDrain(b, c, func() trace.BlockStream { return trace.BranchBlocks(c) })
	})
}

// benchDrain times draining a fresh stream from open per iteration.
func benchDrain(b *testing.B, c *trace.Columnar, open func() trace.BlockStream) {
	b.ReportAllocs()
	for b.Loop() {
		drain(b, open())
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(c.Len()), "ns/record")
}

// drain reads bs to its end and fails b on a decode error.
func drain(b *testing.B, bs trace.BlockStream) {
	for {
		recs, err := bs.NextBlock()
		if err != nil {
			b.Fatal(err)
		}
		if recs == nil {
			return
		}
	}
}
