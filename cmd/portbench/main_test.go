package main

import (
	"encoding/csv"
	"strings"
	"testing"

	"portsim/internal/experiments"
)

func runPB(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(args, &b)
	return b.String(), err
}

func TestOnlySelectsExperiments(t *testing.T) {
	out, err := runPB(t, "-quick", "-insts", "5000", "-only", "T1,F1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "T1: baseline machine parameters") {
		t.Error("T1 table missing")
	}
	if !strings.Contains(out, "F1: IPC vs number of cache ports") {
		t.Error("F1 table missing")
	}
	if strings.Contains(out, "F6:") {
		t.Error("unselected experiment ran")
	}
	if !strings.Contains(out, "total wall time") {
		t.Error("footer missing")
	}
}

func TestOnlyIsCaseInsensitive(t *testing.T) {
	out, err := runPB(t, "-quick", "-insts", "5000", "-only", "t1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "T1:") {
		t.Error("lower-case id not matched")
	}
}

func TestUnknownExperimentRejected(t *testing.T) {
	if _, err := runPB(t, "-quick", "-only", "Z9"); err == nil {
		t.Error("unknown experiment id accepted")
	}
}

// TestUnknownExperimentAmongKnownRejected checks that one typo in an -only
// list fails the run before any table renders, naming the unknown ids and
// the valid ones, instead of silently running the rest.
func TestUnknownExperimentAmongKnownRejected(t *testing.T) {
	out, err := runPB(t, "-quick", "-insts", "5000", "-only", "F6,x1, Z9")
	if err == nil {
		t.Fatal("-only F6,x1,Z9 accepted")
	}
	for _, frag := range []string{"X1,Z9", "T1,T2,F1", "A8"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not name %q", err, frag)
		}
	}
	if out != "" {
		t.Errorf("output before the id check:\n%s", out)
	}
}

func TestHeaderReportsSpec(t *testing.T) {
	out, err := runPB(t, "-quick", "-insts", "4000", "-seed", "9", "-only", "T1")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "3 workloads x 4000 instructions, seed 9") {
		t.Errorf("header wrong:\n%s", strings.SplitN(out, "\n", 2)[0])
	}
}

// stripTiming drops the wall-time and host-throughput footer lines, the
// only output that legitimately differs between runs.
func stripTiming(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "total wall time:") || strings.Contains(line, "host throughput") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestParallelOutputByteIdentical is the CLI-level determinism guarantee:
// everything but the timing footer must match between -parallel 1 and
// -parallel 8.
func TestParallelOutputByteIdentical(t *testing.T) {
	serial, err := runPB(t, "-quick", "-insts", "4000", "-only", "T2,F1,F6", "-parallel", "1")
	if err != nil {
		t.Fatal(err)
	}
	par, err := runPB(t, "-quick", "-insts", "4000", "-only", "T2,F1,F6", "-parallel", "8")
	if err != nil {
		t.Fatal(err)
	}
	if stripTiming(par) != stripTiming(serial) {
		t.Errorf("-parallel 8 output diverged from -parallel 1:\n--- serial ---\n%s\n--- parallel ---\n%s",
			serial, par)
	}
}

func TestProgressFlagRuns(t *testing.T) {
	out, err := runPB(t, "-quick", "-insts", "2000", "-only", "T2", "-parallel", "2", "-progress")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "cells done") {
		t.Error("progress leaked into the table stream; it must stay on stderr")
	}
}

// TestThroughputReportFinite guards the rate math: even a degenerate spec
// that finishes in roughly zero wall time must not print Inf or NaN.
func TestThroughputReportFinite(t *testing.T) {
	out, err := runPB(t, "-quick", "-insts", "1000", "-only", "T2")
	if err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"Inf", "NaN"} {
		if strings.Contains(out, bad) {
			t.Errorf("throughput report contains %s:\n%s", bad, out)
		}
	}
	if !strings.Contains(out, "host throughput") {
		t.Errorf("throughput footer missing:\n%s", out)
	}
}

// TestCSVOutput checks the CSV of every table of the quick suite: each
// has its "# title" line, a header, and rows of exactly the header's column
// count (csv.Reader holds every record to the first one's field count).
func TestCSVOutput(t *testing.T) {
	out, err := runPB(t, "-quick", "-insts", "2000", "-csv")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "# T1: baseline machine parameters\nparameter,value\n") {
		t.Error("T1's CSV title comment or header missing")
	}
	if strings.Contains(out, "---") {
		t.Error("aligned-table separator leaked into CSV mode")
	}
	tables := map[string]bool{}
	for _, block := range strings.Split(out, "\n\n") {
		title, body, _ := strings.Cut(block, "\n")
		if !strings.HasPrefix(title, "# ") {
			continue
		}
		id, _, _ := strings.Cut(strings.TrimPrefix(title, "# "), ":")
		tables[id] = true
		records, err := csv.NewReader(strings.NewReader(body)).ReadAll()
		if err != nil {
			t.Errorf("%s: %v", title, err)
		} else if len(records) < 2 {
			t.Errorf("%s: %d CSV records, want a header and rows", title, len(records))
		}
	}
	suite := experiments.Suite()
	for _, e := range suite {
		if !tables[e.ID] {
			t.Errorf("no CSV table for %s", e.ID)
		}
	}
	if len(tables) != len(suite) {
		t.Errorf("%d CSV tables, want one per experiment (%d)", len(tables), len(suite))
	}
}
