// Command tracegen generates, saves, and inspects branch traces in the
// repository's binary format (BMC1, block-compressed and checksummed),
// so expensive workloads can be generated once and replayed from disk.
//
// Usage:
//
//	tracegen -w gcc -o gcc.bmc
//	tracegen -w gcc -block 1024 -o gcc.bmc
//	tracegen -info gcc.bmc
//	tracegen -w playout -n 1000000 -o playout.bmc
//	tracegen -w mine.json -o mine.bmc     # user-defined profile
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"bimode/internal/synth"
	"bimode/internal/trace"
	"bimode/internal/workloads"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	var (
		wl      = fs.String("w", "", "workload to generate")
		out     = fs.String("o", "", "output trace file")
		dynamic = fs.Int("n", 0, "dynamic branches (0 = calibrated default)")
		seed    = fs.Uint64("seed", 0, "workload seed override")
		block   = fs.Int("block", trace.DefaultColumnarBlock, "records per block")
		info    = fs.String("info", "", "print statistics of an existing trace file and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *info != "" {
		data, err := os.ReadFile(*info)
		if err != nil {
			return err
		}
		m, err := trace.Decode(data)
		if err != nil {
			return err
		}
		stats := trace.Collect(m)
		fmt.Printf("%s: %d static sites (%d declared), %d dynamic branches, %.1f%% taken\n",
			stats.Name, stats.StaticBranches, m.StaticCount(), stats.DynamicBranches, 100*stats.TakenRate())
		return nil
	}

	if *wl == "" || *out == "" {
		return fmt.Errorf("need -w <workload> and -o <file> (or -info <file>)")
	}
	var src trace.Source
	if strings.HasSuffix(*wl, ".json") {
		f, err := os.Open(*wl)
		if err != nil {
			return err
		}
		prof, err := synth.ReadProfile(f)
		f.Close()
		if err != nil {
			return err
		}
		if *dynamic > 0 {
			prof = prof.WithDynamic(*dynamic)
		}
		if *seed != 0 {
			prof = prof.WithSeed(*seed)
		}
		src, err = synth.NewWorkload(prof)
		if err != nil {
			return err
		}
	} else {
		var err error
		src, err = workloads.Get(*wl, workloads.Options{Dynamic: *dynamic, Seed: *seed})
		if err != nil {
			return err
		}
	}
	m := trace.Materialize(src)
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := trace.WriteColumnarBlocks(f, m, *block); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	st, err := os.Stat(*out)
	if err != nil {
		return err
	}
	fmt.Printf("wrote %s: %d branches, %d bytes (%.2f bytes/branch)\n",
		*out, m.Len(), st.Size(), float64(st.Size())/float64(m.Len()))
	return nil
}
