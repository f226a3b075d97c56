package serve

import (
	"testing"

	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/zoo"
)

// BenchmarkTextIngest applies one 4096-line text body, in the shape
// perfbench's serve-text workload sends, to a bimode:b=11 +
// gshare:i=12,h=12 session through applyBody: parsing, site mapping and
// both observers, without HTTP, admission or the journal. A session
// takes the 16 bodies of one gcc-profile trace in order, then a fresh
// session starts, as each serve-text session does.
//
//	go test -run '^$' -bench TextIngest -count 5 ./internal/serve
func BenchmarkTextIngest(b *testing.B) {
	specs := []string{"bimode:b=11", "gshare:i=12,h=12"}
	const per, bodies = 4096, 16
	p, ok := synth.ProfileByName("gcc")
	if !ok {
		b.Fatal("no gcc profile")
	}
	recs := trace.Materialize(synth.MustWorkload(p.WithSeed(1).WithDynamic(per * bodies))).Records()
	texts := make([][]byte, bodies)
	for i := range texts {
		texts[i] = []byte(textBody(recs[i*per : (i+1)*per]))
	}
	fresh := func() *session {
		sess := &session{}
		for _, spec := range specs {
			sp, err := newSpecState(spec, zoo.MustNew(spec))
			if err != nil {
				b.Fatal(err)
			}
			sess.specs = append(sess.specs, sp)
		}
		return sess
	}
	var sess *session
	b.ReportAllocs()
	b.ResetTimer()
	for i := range b.N {
		if i%bodies == 0 {
			b.StopTimer()
			sess = fresh()
			b.StartTimer()
		}
		if n, err := sess.applyBody(texts[i%bodies], nil); err != nil || n != per {
			b.Fatalf("applied %d of %d records: %v", n, per, err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*per), "ns/record")
}
