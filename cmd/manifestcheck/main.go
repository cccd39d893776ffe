// Command manifestcheck validates a portsim run manifest (the
// MANIFEST.json that portbench -manifest writes) and prints a one-screen
// summary: schema, campaign fingerprint, cell totals and any failed
// cells. It exits non-zero when the document is missing, unparsable, or
// internally inconsistent (wrong schema, totals that disagree with the
// cells, impossible outcomes), so CI can gate on it directly:
//
//	portbench -quick -manifest MANIFEST.json && manifestcheck MANIFEST.json
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"portsim/internal/cpustack"
	"portsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "manifestcheck:", err)
		os.Exit(1)
	}
}

// run validates every path given; split from main for testability.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("manifestcheck", flag.ContinueOnError)
	quiet := fs.Bool("q", false, "suppress the summary; only the exit status reports validity")
	if err := fs.Parse(args); err != nil {
		return err
	}
	paths := fs.Args()
	if len(paths) == 0 {
		return fmt.Errorf("usage: manifestcheck [-q] MANIFEST.json...")
	}
	for _, path := range paths {
		m, err := telemetry.ReadManifest(path) // its errors name the path
		if err != nil {
			return err
		}
		if *quiet {
			continue
		}
		summarise(out, path, m)
	}
	return nil
}

// summarise prints the manifest's headline facts.
func summarise(out io.Writer, path string, m *telemetry.Manifest) {
	fmt.Fprintf(out, "%s: valid %s\n", path, m.Schema)
	fmt.Fprintf(out, "  created %s by %s (%s/%s)\n", m.CreatedAt, m.GoVersion, m.GOOS, m.GOARCH)
	fmt.Fprintf(out, "  campaign %s: seed %d, %d insts, %d workloads, %d experiments, parallel %d\n",
		m.ConfigHash, m.Seed, m.Insts, len(m.Workloads), len(m.Experiments), m.Parallel)
	fmt.Fprintf(out, "  cells %d (%d simulated, %d memo hits, %d store hits, %d failed); %d cycles / %d insts in %.2fs\n",
		m.Totals.Cells, m.Totals.Cells-m.Totals.MemoHits-m.Totals.StoreHits-m.Totals.Failed,
		m.Totals.MemoHits, m.Totals.StoreHits,
		m.Totals.Failed, m.Totals.SimCycles, m.Totals.SimInsts, m.Totals.WallSeconds)
	if len(m.CPIStack) > 0 {
		// Render the aggregate CPI stack in taxonomy order, as percentages
		// of the simulated-cycle total the buckets partition.
		var total uint64
		for _, v := range m.CPIStack {
			total += v
		}
		fmt.Fprint(out, "  cpi stack:")
		for b := cpustack.Bucket(0); b < cpustack.NumBuckets; b++ {
			v, ok := m.CPIStack[b.String()]
			if !ok {
				continue
			}
			fmt.Fprintf(out, " %s %.1f%%", b, 100*float64(v)/float64(total))
		}
		fmt.Fprintln(out)
	}
	if s := m.Store; s != nil {
		fmt.Fprintf(out, "  store %s: %d restored, %d simulated, %d written, %d quarantined",
			s.Dir, s.Hits, s.Misses, s.Puts, s.Quarantined)
		if s.Resumed {
			fmt.Fprint(out, " (resumed)")
		}
		if s.Fault != "" {
			fmt.Fprintf(out, " (fault %s)", s.Fault)
		}
		if s.Degraded {
			fmt.Fprint(out, " (degraded)")
		}
		fmt.Fprintln(out)
	}
	for _, c := range m.Cells {
		if c.Outcome == telemetry.OutcomeFailed {
			fmt.Fprintf(out, "  FAILED %s @ %s: %s\n", c.Workload, c.Machine, c.Error)
		}
	}
	for _, b := range m.Bundles {
		fmt.Fprintf(out, "  repro bundle: %s\n", b)
	}
}
