package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary when the
// parent re-executes itself for a repeat.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// benchmarkFile is BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []benchMetric `json:"end_to_end"`
	PerLayer []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var f benchmarkFile
	if err := dec.Decode(&f); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return f
}

// TestBenchmarkJSON checks BENCHMARK.json's shape and that it describes
// exactly the metrics this command computes, with the layer map naming
// real end-to-end metrics and workloads.
func TestBenchmarkJSON(t *testing.T) {
	f := readBenchmarkFile(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	checkName := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %s", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	if !slices.Equal(f.Paths, []string{"bench"}) || !slices.Equal(f.Command, []string{"bash", "bench/run.sh"}) {
		t.Errorf("paths %q command %q", f.Paths, f.Command)
	}
	if f.RunSeconds < 1 || f.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", f.RunSeconds)
	}
	if n := len(f.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	var workloads []string
	for _, w := range f.Workloads {
		checkName(w.Name)
		workloads = append(workloads, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1..200 characters", w.Name)
		}
	}
	if !slices.Equal(workloads, allWorkloads) {
		t.Errorf("workloads %q, the command runs %q", workloads, allWorkloads)
	}
	if len(f.EndToEnd) < 1 || len(f.EndToEnd) > 16 || len(f.PerLayer) < 1 || len(f.PerLayer) > 128 {
		t.Errorf("%d end-to-end and %d per-layer metrics, want 1..16 and 1..128", len(f.EndToEnd), len(f.PerLayer))
	}
	e2e := map[string]bool{}
	for _, m := range f.EndToEnd {
		e2e[m.Name] = true
	}
	check := func(kind string, got []benchMetric, want []metric) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the command computes %d", kind, len(got), len(want))
		}
		for i, m := range got {
			checkName(m.Name)
			if !unit.MatchString(m.Unit) || (m.Better != "lower" && m.Better != "higher") {
				t.Errorf("%s: bad unit %q or direction %q", m.Name, m.Unit, m.Better)
			}
			if i >= len(want) {
				continue
			}
			w := want[i]
			if m.Name != w.Name || m.Unit != w.Unit || m.Better != w.Better {
				t.Errorf("%s metric %d: BENCHMARK.json has %s %s %s, the command %s %s %s",
					kind, i, m.Name, m.Unit, m.Better, w.Name, w.Unit, w.Better)
			}
			if kind == "end_to_end" {
				if m.Bound == nil || *m.Bound <= 0 || *m.Bound > 0.25 || *m.Bound != w.Bound {
					t.Errorf("%s: bound %v, want the command's %v within (0, 0.25]", m.Name, m.Bound, w.Bound)
				}
				continue
			}
			if m.Bound != nil {
				t.Errorf("%s: per-layer metrics carry no bound", m.Name)
			}
			// The benchmark's own overhead is the one layer number no user
			// sees move.
			if strings.HasPrefix(m.Name, "bench.") {
				continue
			}
			if len(w.Moves) == 0 || len(w.On) == 0 {
				t.Errorf("%s: the layer map names no end-to-end metric or workload", m.Name)
			}
			for _, e := range w.Moves {
				if !e2e[e] {
					t.Errorf("%s moves %q, which is not an end-to-end metric", m.Name, e)
				}
			}
			for _, on := range w.On {
				if !slices.Contains(workloads, on) {
					t.Errorf("%s moves on %q, which is not a workload", m.Name, on)
				}
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd)
	check("per_layer", f.PerLayer, perLayer)
	if !e2e["setup_s"] {
		t.Error("setup_s must be an end-to-end metric")
	}
	setup, _ := lookupMetric("setup_s")
	for _, m := range endToEnd {
		if m.Bound > setup.Bound {
			t.Errorf("%s's bound %v exceeds setup_s's %v", m.Name, m.Bound, setup.Bound)
		}
	}
}

// TestToyScaleWorkloads runs all four workloads at toy scale with traced
// and untraced repeats, and checks that every metric BENCHMARK.json names
// is emitted with its unit, that the spans file loads as trace events, and
// that traced and untraced repeats render identical output.
func TestToyScaleWorkloads(t *testing.T) {
	dir := t.TempDir()
	toy := []string{"-insts", "5000", "-profiles", "3", "-repeats", "1", "-work-dir", dir}
	var out, errOut bytes.Buffer
	if code := run(append([]string{"-workload", "all", "-trace", "1"}, toy...), &out, &errOut); code != 0 {
		t.Fatalf("traced run exited %d\nstdout:\n%s\nstderr:\n%s", code, out.String(), errOut.String())
	}
	line := lastLine(t, out.String())
	if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
		t.Errorf("final line: correct %v attempted %d failed %d", line.Correct, line.Attempted, line.Failed)
	}
	rep, err := readReport(filepath.Join(dir, "result.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range rep.Workloads {
		for _, m := range slices.Concat(endToEnd, perLayer) {
			if s, ok := w.Summary[m.Name]; !ok || s.Unit != m.Unit || s.N == 0 {
				t.Errorf("%s: %s missing from the result file, or without its unit", w.Name, m.Name)
			}
		}
		for _, m := range perLayer {
			if got, ok := line.Metrics[w.Name+"."+m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s: per-layer %s missing from the final line, or without its unit", w.Name, m.Name)
			}
		}
		var traced, plain []string
		for _, s := range w.Samples {
			if s.Traced {
				traced = append(traced, s.Digest)
			} else {
				plain = append(plain, s.Digest)
			}
		}
		if len(traced) == 0 || len(plain) == 0 || traced[0] != plain[0] {
			t.Errorf("%s: traced outputs %q, untraced %q; want equal and present", w.Name, traced, plain)
		}
	}
	if got := rep.Workloads[2].Summary["cellstore.hits"].Median; got == 0 {
		t.Errorf("campaign-resume restored no cells from its store")
	}
	spans, err := os.ReadFile(filepath.Join(dir, "spans.json"))
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(spans, &trace); err != nil || len(trace.TraceEvents) == 0 {
		t.Errorf("spans.json: %d events, err %v", len(trace.TraceEvents), err)
	}

	// An untraced run reports exactly the end-to-end metrics.
	out.Reset()
	if code := run(append([]string{"-workload", facadeSerial, "-trace", "0"}, toy...), &out, &errOut); code != 0 {
		t.Fatalf("untraced run exited %d\n%s", code, errOut.String())
	}
	line = lastLine(t, out.String())
	if len(line.Metrics) != len(endToEnd) {
		t.Errorf("untraced final line has %d metrics, want %d", len(line.Metrics), len(endToEnd))
	}
	for _, m := range endToEnd {
		if got, ok := line.Metrics[m.Name]; !ok || got.Unit != m.Unit || got.Value <= 0 {
			t.Errorf("untraced final line: %s = %+v", m.Name, got)
		}
	}
}

// lookupMetric finds a metric of any kind by name.
func lookupMetric(name string) (metric, bool) {
	for _, set := range [][]metric{endToEnd, perLayer, reportOnly} {
		for _, m := range set {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metric{}, false
}

func lastLine(t *testing.T, out string) resultLine {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var line resultLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return line
}

// TestGoldenMatchesPortbenchOutput pins the full-scale seed-42 campaign
// golden to the tables in results/portbench.txt.
func TestGoldenMatchesPortbenchOutput(t *testing.T) {
	data, err := os.ReadFile("../results/portbench.txt")
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	start := strings.Index(text, "\nT1:") + 1
	end := strings.Index(text, "\ntotal wall time:") + 1
	if start <= 0 || end <= start {
		t.Fatal("results/portbench.txt: table span not found")
	}
	sum := sha256.Sum256([]byte(text[start:end]))
	g, err := parseGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	want, ok := g.lookup("campaign", scaleKey(7, 300_000), 42)
	if got := hex.EncodeToString(sum[:]); !ok || got != want {
		t.Errorf("results/portbench.txt tables digest %s, golden %q", got, want)
	}
}

// TestSummarizeMatchesPython checks the quartiles against Python's
// statistics.quantiles(xs, n=4).
func TestSummarizeMatchesPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4}, [3]float64{1.25, 2.5, 3.75}},
		{[]float64{5, 1}, [3]float64{0, 3, 6}},
		{[]float64{2.5, 0.5, 9, 4, 7.25}, [3]float64{1.5, 4, 8.125}},
	} {
		s := summarize(c.xs)
		if got := [3]float64{s.Q1, s.Median, s.Q3}; got != c.want {
			t.Errorf("summarize(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// TestClassify covers each verdict of the comparison rule.
func TestClassify(t *testing.T) {
	wall, _ := lookupMetric("wall_s")
	rate, _ := lookupMetric("sim_minsts_per_s")
	layer, _ := lookupMetric("cpu.new_ms")
	base := []float64{10, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99, 10}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{6, 12, 8, 11, 10, 7, 14, 10, 9, 13}
	for _, c := range []struct {
		m              metric
		parent, change []float64
		want           string
	}{
		{wall, base, scaled(base, 0.9), "improved"},
		{wall, base, scaled(base, 1.02), "unchanged"},
		{wall, base, scaled(base, 1.1), "unchanged"},
		{wall, base, scaled(base, 1.3), "regressed"},
		{wall, base, scaled(base, 1.24), "unchanged"},
		{rate, base, scaled(base, 1.2), "improved"},
		{rate, base, scaled(base, 0.7), "regressed"},
		{wall, noisy, scaled(noisy, 1.05), "unresolved"},
		{layer, base, scaled(base, 1.2), "regressed"},
		{layer, base, scaled(base, 1.001), "unchanged"},
	} {
		if got, _, _ := classify(c.m, c.parent, c.change); got != c.want {
			t.Errorf("%s: got %s, want %s", c.m.Name, got, c.want)
		}
	}
	if math.IsNaN(summarize(nil).Median) == false {
		t.Error("summary of no samples should be NaN")
	}
}

// TestCompareRefusesOtherHosts checks that results from different machine
// classes are never compared.
func TestCompareRefusesOtherHosts(t *testing.T) {
	a := &report{Schema: resultSchema, Host: currentHost(), Insts: 1, Profiles: 1}
	b := *a
	b.Host.CPUModel = "another cpu"
	var out, errOut bytes.Buffer
	if code := compareReports(a, &b, &out, &errOut); code != 2 || !strings.Contains(errOut.String(), "different hosts") {
		t.Errorf("compare across hosts: exit %d, stderr %q", code, errOut.String())
	}
}
