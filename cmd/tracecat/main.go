// Command tracecat imports, inspects and verifies on-disk branch
// traces. It is the entry point for external (pc, taken) captures, which
// it writes as BMC1, the repository's block-compressed, checksummed trace
// format.
//
// Usage:
//
//	tracecat import -name capture -o cap.bmc capture.txt
//	tracecat info gcc.bmc                          # layout + stats
//	tracecat verify a.bmc b.bmc                    # record-for-record proof
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"bimode/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tracecat:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("need a subcommand: import, info, or verify")
	}
	switch args[0] {
	case "import":
		return runImport(args[1:], out)
	case "info":
		return runInfo(args[1:], out)
	case "verify":
		return runVerify(args[1:], out)
	}
	return fmt.Errorf("unknown subcommand %q (want import, info, or verify)", args[0])
}

func runImport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tracecat import", flag.ContinueOnError)
	var (
		o     = fs.String("o", "", "output trace file")
		name  = fs.String("name", "", "workload name for the imported trace (default: input filename)")
		block = fs.Int("block", trace.DefaultColumnarBlock, "records per block")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *o == "" || fs.NArg() != 1 {
		return fmt.Errorf("usage: tracecat import -o <out> [-name <name>] <capture.txt>")
	}
	in := fs.Arg(0)
	if *name == "" {
		*name = in
	}
	f, err := os.Open(in)
	if err != nil {
		return err
	}
	m, err := trace.ImportText(f, *name)
	f.Close()
	if err != nil {
		return err
	}
	w, err := os.Create(*o)
	if err != nil {
		return err
	}
	if err := trace.WriteColumnarBlocks(w, m, *block); err != nil {
		w.Close()
		return err
	}
	if err := w.Close(); err != nil {
		return err
	}
	st, err := os.Stat(*o)
	if err != nil {
		return err
	}
	perBranch := 0.0
	if m.Len() > 0 {
		perBranch = float64(st.Size()) / float64(m.Len())
	}
	fmt.Fprintf(out, "wrote %s: %d branches, %d bytes (%.2f bytes/branch)\n",
		*o, m.Len(), st.Size(), perBranch)
	return nil
}

func runInfo(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: tracecat info <file>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	c, err := trace.OpenColumnar(data)
	if err != nil {
		return err
	}
	m, err := trace.MaterializeContext(context.Background(), c)
	if err != nil {
		return err
	}
	stats := trace.Collect(m)
	fmt.Fprintf(out, "%s: columnar, %d blocks of %d, %d static sites (%d declared), %d dynamic branches, %.1f%% taken\n",
		stats.Name, c.NumBlocks(), c.BlockSize(), stats.StaticBranches, m.StaticCount(),
		stats.DynamicBranches, 100*stats.TakenRate())
	return nil
}

func runVerify(args []string, out io.Writer) error {
	if len(args) != 2 {
		return fmt.Errorf("usage: tracecat verify <a> <b>")
	}
	mems := make([]*trace.Memory, 2)
	for i, path := range args {
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if mems[i], err = trace.Decode(data); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	a, b := mems[0], mems[1]
	if a.Name() != b.Name() {
		return fmt.Errorf("names differ: %q vs %q", a.Name(), b.Name())
	}
	if a.StaticCount() != b.StaticCount() {
		return fmt.Errorf("static counts differ: %d vs %d", a.StaticCount(), b.StaticCount())
	}
	if a.Len() != b.Len() {
		return fmt.Errorf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Records() {
		if a.Records()[i] != b.Records()[i] {
			return fmt.Errorf("record %d differs: %+v vs %+v", i, a.Records()[i], b.Records()[i])
		}
	}
	fmt.Fprintf(out, "identical: %q, %d static sites, %d branches\n", a.Name(), a.StaticCount(), a.Len())
	return nil
}
