// Package workloads is the benchmark registry: it maps workload names to
// trace sources. Two families are available:
//
//   - The fourteen calibrated synthetic benchmarks standing in for the
//     paper's SPEC CINT95 and IBS-Ultrix traces (see internal/synth and
//     DESIGN.md section 2 for the substitution rationale).
//   - Instrumented real programs (LZW compression, expression parsing and
//     evaluation, a lisp-style interpreter, sorting/searching, and a
//     game-playout kernel) whose genuine branch decisions are recorded
//     through the Tracer harness — a non-parametric cross-check on the
//     synthetic results.
package workloads

import (
	"fmt"
	"sort"

	"bimode/internal/synth"
	"bimode/internal/trace"
)

// Options adjusts a workload when it is instantiated.
type Options struct {
	// Dynamic overrides the number of dynamic branches (0 keeps the
	// workload default).
	Dynamic int
	// Seed overrides the workload seed (0 keeps the default).
	Seed uint64
}

// program describes one instrumented real program.
type program struct {
	name    string
	dynamic int // default dynamic branch budget
	run     func(t *Tracer, seed uint64, round int)
}

// programs lists the instrumented real programs; definitions live in the
// program_*.go files.
var programs = []program{
	{name: "lzw", dynamic: 400000, run: runLZW},           // LZW compression of generated text (compress-like)
	{name: "expr", dynamic: 400000, run: runExpr},         // recursive-descent parsing and evaluation (gcc-like front end)
	{name: "minilisp", dynamic: 400000, run: runLisp},     // list-structured interpreter (xlisp-like)
	{name: "sortbench", dynamic: 400000, run: runSort},    // quicksort, heapsort and binary search (comparison-heavy)
	{name: "playout", dynamic: 400000, run: runPlayout},   // game-tree playouts with pattern heuristics (go-like)
	{name: "huffman", dynamic: 400000, run: runHuffman},   // Huffman tree build, encode and decode (heap + tree walks)
	{name: "regexish", dynamic: 400000, run: runRegex},    // backtracking pattern matcher over generated text (grep-like)
	{name: "mpmatch", dynamic: 400000, run: runMPMatch},   // Morris-Pratt string search with analytic comparison traces
	{name: "kmpmatch", dynamic: 400000, run: runKMPMatch}, // Knuth-Morris-Pratt search, strong-failure shifting
}

// Names returns every registered workload name, synthetic benchmarks
// first in paper order, then the instrumented programs alphabetically.
func Names() []string {
	var names []string
	for _, p := range synth.Profiles() {
		names = append(names, p.Name)
	}
	var progs []string
	for _, p := range programs {
		progs = append(progs, p.name)
	}
	sort.Strings(progs)
	return append(names, progs...)
}

// Get instantiates the named workload.
func Get(name string, opts Options) (trace.Source, error) {
	if prof, ok := synth.ProfileByName(name); ok {
		if opts.Dynamic > 0 {
			prof = prof.WithDynamic(opts.Dynamic)
		}
		if opts.Seed != 0 {
			prof = prof.WithSeed(opts.Seed)
		}
		return synth.NewWorkload(prof)
	}
	for _, p := range programs {
		if p.name != name {
			continue
		}
		dyn := p.dynamic
		if opts.Dynamic > 0 {
			dyn = opts.Dynamic
		}
		seed := uint64(0x5EED0000) + uint64(len(p.name))
		if opts.Seed != 0 {
			seed = opts.Seed
		}
		return newProgramSource(p, dyn, seed), nil
	}
	return nil, fmt.Errorf("workloads: unknown workload %q (try one of %v)", name, Names())
}

// MustGet is Get for names fixed at compile time; panics on error.
func MustGet(name string, opts Options) trace.Source {
	src, err := Get(name, opts)
	if err != nil {
		panic(err)
	}
	return src
}

// Suite returns the calibrated synthetic benchmarks of one suite
// (synth.SuiteSPEC or synth.SuiteIBS) with default parameters, in paper
// order.
func Suite(suite string) []trace.Source {
	var out []trace.Source
	for _, p := range synth.Profiles() {
		if p.Suite == suite {
			out = append(out, synth.MustWorkload(p))
		}
	}
	return out
}
