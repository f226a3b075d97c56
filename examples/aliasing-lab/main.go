// Aliasing lab: construct the destructive-aliasing pathology the paper
// targets — two strongly but oppositely biased branches forced onto the
// same gshare counter — then watch the bi-mode choice predictor separate
// them, and inspect the substream bias classes with the Section 4
// analysis machinery.
package main

import (
	"fmt"
	"log"

	"bimode"
)

// adversarial emits the repeating stream [A taken, B not-taken] whose
// steady-state histories make A and B collide on one counter of a
// 16-entry gshare(4,4): before A the last four outcomes are 1010, before
// B they are 0101, so with pcA>>2 = 0 and pcB>>2 = 1111 both xor to
// index 10.
type adversarial struct{ n int }

func (a adversarial) Name() string     { return "adversarial" }
func (a adversarial) StaticCount() int { return 2 }

func (a adversarial) Stream() bimode.Stream { return &advStream{n: a.n} }

type advStream struct{ i, n int }

func (s *advStream) Next() (bimode.Record, bool) {
	if s.i >= s.n {
		return bimode.Record{}, false
	}
	i := s.i
	s.i++
	if i%2 == 0 {
		return bimode.Record{PC: 0x0, Static: 0, Taken: true}, true
	}
	return bimode.Record{PC: 0xF << 2, Static: 1, Taken: false}, true
}

func main() {
	src := adversarial{n: 10_000}

	gs := must(bimode.NewPredictor("gshare:i=4,h=4"))
	bm := must(bimode.NewPredictor("bimode:c=8,b=4,h=4"))

	fmt.Println("two opposite-bias branches forced onto one gshare counter:")
	for _, p := range []bimode.Predictor{gs, bm} {
		res := bimode.Run(p, src)
		fmt.Printf("  %-22s %5.2f%% mispredict\n", p.Name(), 100*res.MispredictRate())
	}

	fmt.Println("\nsubstream bias classes at the shared counter (Section 4 analysis):")
	study, err := bimode.RunStudy(must(bimode.NewPredictor("gshare:i=4,h=4")), src)
	if err != nil {
		log.Fatal(err)
	}
	// The shared counter is the one both branches reach; the others hold
	// the one-outcome substreams of the first records, before the history
	// settles.
	reach := map[int]int{}
	for _, sub := range study.Substreams {
		reach[sub.Counter]++
	}
	warmup := 0
	for _, sub := range study.Substreams {
		if reach[sub.Counter] < 2 {
			warmup++
			continue
		}
		fmt.Printf("  branch %d -> counter %2d: %5d outcomes, %5d taken, class %s\n",
			sub.Static, sub.Counter, sub.Len, sub.Taken, sub.Class())
	}
	fmt.Printf("  (and %d warm-up substreams of one outcome each at other counters)\n", warmup)
	d, nd, wb := study.AreaShares()
	fmt.Printf("  gshare area shares: dominant %.0f%%, non-dominant %.0f%%, WB %.0f%%\n",
		100*d, 100*nd, 100*wb)

	bmStudy, err := bimode.RunStudy(must(bimode.NewPredictor("bimode:c=8,b=4,h=4")), src)
	if err != nil {
		log.Fatal(err)
	}
	d, nd, wb = bmStudy.AreaShares()
	fmt.Printf("  bi-mode area shares: dominant %.0f%%, non-dominant %.0f%%, WB %.0f%%\n",
		100*d, 100*nd, 100*wb)
	fmt.Println("\nbi-mode steers the taken-biased branch to one bank and the")
	fmt.Println("not-taken-biased branch to the other, so the destructive alias")
	fmt.Println("becomes two harmless single-class substreams.")
}

func must(p bimode.Predictor, err error) bimode.Predictor {
	if err != nil {
		log.Fatal(err)
	}
	return p
}
