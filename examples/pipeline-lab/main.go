// Pipeline lab: what branch prediction accuracy means for performance.
// Converts misprediction rates into CPI with a simple pipeline model,
// decomposes mispredictions into compulsory / conflict / intrinsic
// components, and shows how resolution lag (non-speculative predictor
// update) erodes a history predictor's advantage.
package main

import (
	"fmt"
	"log"

	"bimode"
)

func main() {
	src, err := bimode.Workload("gcc", bimode.WorkloadOptions{Dynamic: 800_000})
	if err != nil {
		log.Fatal(err)
	}
	workload := bimode.Materialize(src)
	machine := bimode.DefaultPipeline()
	fmt.Printf("machine: %v\n\n", machine)

	specs := []string{"smith:a=12", "gshare:i=12,h=12", "bimode:b=11", "trimode:b=10"}

	fmt.Println("accuracy -> cycles per instruction:")
	baseRate := -1.0
	for _, spec := range specs {
		p := must(bimode.NewPredictor(spec))
		res := bimode.Run(p, workload)
		rate := res.MispredictRate()
		if baseRate < 0 {
			baseRate = rate
		}
		fmt.Printf("  %-22s %5.2f%% mispredict  CPI %.3f  speedup over smith %.3fx\n",
			p.Name(), 100*rate, machine.CPI(rate), machine.Speedup(rate, baseRate))
	}

	fmt.Println("\nwhere the mispredictions come from (compulsory/conflict/intrinsic):")
	for _, spec := range []string{"gshare:i=12,h=12", "bimode:b=11"} {
		b, err := bimode.MeasureInterference(must(bimode.NewPredictor(spec)), workload)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %v\n", b)
	}

	fmt.Println("\nresolution lag (predict with stale state; outcomes apply N branches late):")
	for _, lag := range []int{0, 4, 16, 64} {
		g := bimode.RunDelayed(must(bimode.NewPredictor("gshare:i=12,h=12")), workload, lag)
		s := bimode.RunDelayed(must(bimode.NewPredictor("smith:a=12")), workload, lag)
		fmt.Printf("  lag %-3d  gshare %5.2f%%   smith %5.2f%%\n",
			lag, 100*g.MispredictRate(), 100*s.MispredictRate())
	}
	fmt.Println("\na history register that lags the fetch stream hurts gshare; PC-indexed")
	fmt.Println("tables barely notice the lag.")
}

func must(p bimode.Predictor, err error) bimode.Predictor {
	if err != nil {
		log.Fatal(err)
	}
	return p
}
