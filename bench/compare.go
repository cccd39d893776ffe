package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// runCompare compares a parent commit's results with a change's, per
// (metric, workload), and prints improved, unchanged, regressed or
// unresolved for each. Each side is one result file or a comma-separated
// list of them; their repeats are taken in the order given, so runs that
// alternated between the two commits pair up repeat by repeat. It exits 1
// when anything regressed and 2 when the results cannot be compared, which
// includes results from different hosts.
func runCompare(parentPaths, changePaths string, stdout, stderr io.Writer) int {
	parent, err := readSide(parentPaths)
	if err == nil {
		var change *report
		if change, err = readSide(changePaths); err == nil {
			return compareReports(parent, change, stdout, stderr)
		}
	}
	fmt.Fprintln(stderr, "bench: compare:", err)
	return 2
}

// readSide reads one side's result files and concatenates their repeats
// per workload.
func readSide(paths string) (*report, error) {
	var side *report
	for _, path := range strings.Split(paths, ",") {
		r, err := readReport(path)
		if err != nil {
			return nil, err
		}
		if side == nil {
			side = r
			continue
		}
		if r.Host != side.Host || r.Insts != side.Insts || r.Profiles != side.Profiles {
			return nil, fmt.Errorf("%s: host or scale differs from the other files of its side", path)
		}
		for _, w := range r.Workloads {
			i := slices.IndexFunc(side.Workloads, func(s workloadReport) bool { return s.Name == w.Name })
			if i < 0 {
				side.Workloads = append(side.Workloads, w)
				continue
			}
			side.Workloads[i].Samples = append(side.Workloads[i].Samples, w.Samples...)
		}
	}
	return side, nil
}

func readReport(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != resultSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, resultSchema)
	}
	return &r, nil
}

func compareReports(parent, change *report, stdout, stderr io.Writer) int {
	if parent.Host != change.Host {
		fmt.Fprintf(stderr, "bench: compare: results come from different hosts:\n  parent %+v\n  change %+v\n", parent.Host, change.Host)
		return 2
	}
	if parent.Insts != change.Insts || parent.Profiles != change.Profiles {
		fmt.Fprintf(stderr, "bench: compare: results ran at different scales (%s vs %s)\n",
			scaleKey(parent.Profiles, parent.Insts), scaleKey(change.Profiles, change.Insts))
		return 2
	}
	regressed, compared := false, 0
	fmt.Fprintf(stdout, "%-16s %-36s %-10s %s\n", "workload", "metric", "verdict", "parent median [q1 q3] n -> change median [q1 q3] n, change wins")
	for _, pw := range parent.Workloads {
		i := slices.IndexFunc(change.Workloads, func(w workloadReport) bool { return w.Name == pw.Name })
		if i < 0 {
			continue
		}
		cw := change.Workloads[i]
		for _, set := range []struct {
			metrics []metric
			traced  bool
		}{{endToEnd, false}, {perLayer, true}} {
			for _, m := range set.metrics {
				ps, cs := sampleValues(pw, m.Name, set.traced), sampleValues(cw, m.Name, set.traced)
				if len(ps) == 0 || len(cs) == 0 {
					continue
				}
				v, wins, pairs := classify(m, ps, cs)
				regressed = regressed || v == "regressed"
				compared++
				p, c := summarize(ps), summarize(cs)
				fmt.Fprintf(stdout, "%-16s %-36s %-10s %.6g [%.6g %.6g] %d -> %.6g [%.6g %.6g] %d, %d/%d\n",
					pw.Name, m.Name, v, p.Median, p.Q1, p.Q3, p.N, c.Median, c.Q1, c.Q3, c.N, wins, pairs)
			}
		}
	}
	if compared == 0 {
		fmt.Fprintln(stderr, "bench: compare: no metric of any workload is on both sides")
		return 2
	}
	if regressed {
		return 1
	}
	return 0
}

// sampleValues lists one metric over a workload's samples of one kind, in
// run order, so the i-th parent and change repeats pair up.
func sampleValues(w workloadReport, name string, traced bool) []float64 {
	var xs []float64
	for _, s := range w.Samples {
		if v, ok := s.Metrics[name]; ok && s.Traced == traced {
			xs = append(xs, v)
		}
	}
	return xs
}

// classify applies the benchmark's comparison rule to one (metric,
// workload). The change improved when it wins at least nine tenths of the
// pairs (ties count for neither) and the medians differ by more than the
// parent's interquartile range. Otherwise, for a metric with a bound: when
// the parent's own spread is wider than the bound the result is
// unresolved, unless every change repeat beats every parent repeat; else
// the change regressed when its median is worse than the parent's by more
// than the bound. A per-layer metric has no bound, so it regresses only by
// the mirror of the improvement rule.
func classify(m metric, parent, change []float64) (verdict string, wins, pairs int) {
	better := func(a, b float64) bool {
		if m.Better == "lower" {
			return a < b
		}
		return a > b
	}
	pairs = min(len(parent), len(change))
	losses := 0
	for i := range pairs {
		switch {
		case better(change[i], parent[i]):
			wins++
		case better(parent[i], change[i]):
			losses++
		}
	}
	p, c := summarize(parent), summarize(change)
	iqr := p.Q3 - p.Q1
	diff := math.Abs(c.Median - p.Median)
	switch {
	case 10*wins >= 9*pairs && better(c.Median, p.Median) && diff > iqr:
		return "improved", wins, pairs
	case m.Bound == 0:
		if 10*losses >= 9*pairs && better(p.Median, c.Median) && diff > iqr {
			return "regressed", wins, pairs
		}
		return "unchanged", wins, pairs
	}
	allBetter := true
	for _, cv := range change {
		for _, pv := range parent {
			allBetter = allBetter && better(cv, pv)
		}
	}
	if iqr > m.Bound*math.Abs(p.Median) && !allBetter {
		return "unresolved", wins, pairs
	}
	if better(p.Median, c.Median) && diff > m.Bound*math.Abs(p.Median) {
		return "regressed", wins, pairs
	}
	return "unchanged", wins, pairs
}
