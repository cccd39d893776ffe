// Command tracegen generates, inspects, and summarises binary instruction
// traces produced by the workload generators.
//
// Usage:
//
//	tracegen gen     -workload name -insts n -seed n -o trace.bin
//	tracegen dump    -i trace.bin [-n count]
//	tracegen stat    -i trace.bin
//	tracegen profile -i trace.bin            (locality analytics)
//	tracegen profile -workload name -insts n (profile a generator directly)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"portsim/internal/isa"
	"portsim/internal/profile"
	"portsim/internal/stats"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	if err := run(os.Args[1], os.Args[2:], os.Stdout); err != nil {
		if err == errUnknownCommand {
			usage()
		}
		fmt.Fprintln(os.Stderr, "tracegen:", err)
		os.Exit(1)
	}
}

// errUnknownCommand reports an unrecognised subcommand.
var errUnknownCommand = fmt.Errorf("unknown subcommand")

// run dispatches a subcommand; split from main for testability.
func run(cmd string, args []string, out io.Writer) error {
	switch cmd {
	case "gen":
		return genCmd(args, out)
	case "dump":
		return dumpCmd(args, out)
	case "stat":
		return statCmd(args, out)
	case "profile":
		return profileCmd(args, out)
	}
	return errUnknownCommand
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  tracegen gen     -workload name -insts n -seed n -o trace.bin
  tracegen dump    -i trace.bin [-n count]
  tracegen stat    -i trace.bin
  tracegen profile -i trace.bin | -workload name -insts n -seed n`)
	os.Exit(2)
}

func profileCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	in := fs.String("i", "", "input trace (empty: profile a generator)")
	name := fs.String("workload", "compress", "workload to profile when no trace given")
	insts := fs.Uint64("insts", 200_000, "instructions to profile from a generator")
	seed := fs.Int64("seed", 42, "generator seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	a := profile.New(profile.Options{})
	var title string
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			return err
		}
		defer f.Close()
		r := trace.NewReader(f)
		a.Consume(r, 0)
		if err := r.Err(); err != nil {
			return err
		}
		title = *in
	} else {
		if *insts == 0 {
			// Profiling no instructions would print an empty report.
			return fmt.Errorf("-insts must be positive")
		}
		prof, ok := workload.ByName(*name)
		if !ok {
			return fmt.Errorf("unknown workload %q (have %v)", *name, workload.Names())
		}
		gen, err := workload.New(prof, *seed)
		if err != nil {
			return err
		}
		a.Consume(trace.NewLimit(gen, *insts), 0)
		title = fmt.Sprintf("%s (%d instructions, seed %d)", *name, *insts, *seed)
	}
	fmt.Fprint(out, a.Report(title))
	return nil
}

func genCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	name := fs.String("workload", "compress", "workload profile name")
	insts := fs.Uint64("insts", 100_000, "instructions to generate")
	seed := fs.Int64("seed", 42, "generator seed")
	outPath := fs.String("o", "trace.bin", "output file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *insts == 0 {
		// An empty trace is unreadable by stat and has no bytes/inst.
		return fmt.Errorf("-insts must be positive")
	}
	prof, ok := workload.ByName(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q (have %v)", *name, workload.Names())
	}
	gen, err := workload.New(prof, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	w := trace.NewWriter(f)
	var in isa.Inst
	stream := trace.NewLimit(gen, *insts)
	for stream.Next(&in) {
		if err := w.Write(&in); err != nil {
			return err
		}
	}
	if err := w.Flush(); err != nil {
		return err
	}
	info, err := f.Stat()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %d instructions to %s (%d bytes, %.2f bytes/inst)\n",
		w.Count(), *outPath, info.Size(), float64(info.Size())/float64(w.Count()))
	return f.Close()
}

func dumpCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	in := fs.String("i", "trace.bin", "input trace")
	n := fs.Int("n", 50, "instructions to print (0: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewReader(f)
	var inst isa.Inst
	count := 0
	for r.Next(&inst) {
		fmt.Fprintln(out, inst.String())
		count++
		if *n > 0 && count >= *n {
			break
		}
	}
	return r.Err()
}

func statCmd(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("stat", flag.ExitOnError)
	in := fs.String("i", "trace.bin", "input trace")
	if err := fs.Parse(args); err != nil {
		return err
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	defer f.Close()
	r := trace.NewReader(f)
	var inst isa.Inst
	var total, kernel, taken uint64
	classes := map[isa.Class]uint64{}
	for r.Next(&inst) {
		total++
		classes[inst.Class]++
		if inst.Kernel {
			kernel++
		}
		if inst.Class == isa.Branch && inst.Taken {
			taken++
		}
	}
	if err := r.Err(); err != nil {
		return err
	}
	if total == 0 {
		return fmt.Errorf("empty trace")
	}
	t := stats.NewTable(fmt.Sprintf("%s: %d instructions (%.1f%% kernel)",
		*in, total, 100*float64(kernel)/float64(total)),
		"class", "count", "share")
	for c := isa.Class(0); int(c) < isa.NumClasses; c++ {
		if classes[c] == 0 {
			continue
		}
		t.AddRow(c.String(), fmt.Sprint(classes[c]), stats.Percent(float64(classes[c])/float64(total)))
	}
	fmt.Fprint(out, t.String())
	if b := classes[isa.Branch]; b > 0 {
		fmt.Fprintf(out, "conditional branches taken: %s\n", stats.Percent(float64(taken)/float64(b)))
	}
	return nil
}
