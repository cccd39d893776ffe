// Command bench is the repository's benchmark. It drives the simulator's
// layers in-process through their public functions — the experiments
// runner and its 19 experiments, the durable cell store, and the portsim
// facade — on four workloads, and reports end-to-end and per-layer
// metrics. See bench/README.md for the workloads, the metrics and how to
// read them.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -workload campaign-cold -seed 42 [-seconds 25] [-trace 1]
//	bash bench/run.sh -workload all -seed 42,7 -repeats 5
//	bash bench/run.sh -compare p1.json,p2.json,... c1.json,c2.json,...
//
// Each repeat runs in a fresh child process (the binary re-executes
// itself), so arenas, pools, GC state and peak RSS never carry over from
// one repeat to the next. Every metric is printed as "name value unit"
// with its quartiles and sample count, the same data is written to
// <work-dir>/result.json, and the last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"portsim/internal/workload"
)

// defaultInsts is the campaign instruction budget per simulation. A full
// DefaultSpec campaign (300k) takes about 20 s on a 2-core host; 40k keeps
// a repeat near 3 s, so one run's median is taken over several repeats.
const defaultInsts = 40_000

// hardLimit bounds the repeats of one (workload, seed): no repeat starts
// after it and a repeat still running then is killed, so a single-workload
// run always ends inside three minutes.
const hardLimit = 170 * time.Second

// resultSchema names the result-file format.
const resultSchema = "portsim-benchmark/v1"

func main() {
	if len(os.Args) > 1 && os.Args[1] == childArg {
		os.Exit(childMain(os.Args[2:], os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// bench is one invocation's configuration and progress.
type bench struct {
	workloads []string
	seeds     []int64
	seconds   time.Duration
	repeats   int
	traced    bool
	insts     uint64
	profiles  int
	workDir   string
	updating  bool // regenerating goldens, so not checking against them
	args      []string
	stderr    io.Writer
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workloadFlag = fs.String("workload", campaignCold, "workload: "+strings.Join(allWorkloads, ", ")+"; a comma-separated list; or all")
		seedFlag     = fs.String("seed", "42", "workload seed, or a comma-separated list of seeds")
		seconds      = fs.Int("seconds", 25, "measure each (workload, seed) for this many seconds, starting repeats while they fit")
		repeats      = fs.Int("repeats", 0, "run exactly this many repeats of each kind per (workload, seed) instead of filling -seconds")
		traceFlag    = fs.Int("trace", 0, "1: alternate traced and untraced repeats and report the per-layer metrics; 0: untraced only")
		insts        = fs.Uint64("insts", defaultInsts, "instructions per campaign simulation (facade-serial runs 7/3 of it); 300000 is DefaultSpec's")
		profiles     = fs.Int("profiles", len(workload.Names()), "number of workload profiles, in DefaultSpec order")
		workDir      = fs.String("work-dir", ".bench_build", "directory for cell stores, result.json and spans.json")
		compare      = fs.Bool("compare", false, "compare results: -compare parent.json[,...] change.json[,...]")
		update       = fs.String("update-goldens", "", "merge this run's digests into the goldens file at this path")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs the parent's and the change's result files")
			return 2
		}
		return runCompare(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	b := &bench{seconds: time.Duration(*seconds) * time.Second, repeats: *repeats, traced: *traceFlag == 1,
		insts: *insts, profiles: *profiles, workDir: *workDir, updating: *update != "", args: args, stderr: stderr}
	if err := b.parse(*workloadFlag, *seedFlag, *traceFlag); err != nil || fs.NArg() > 0 {
		if err == nil {
			err = fmt.Errorf("unexpected arguments %q", fs.Args())
		}
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if err := os.MkdirAll(b.workDir, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	rep, digests := b.runAll(stdout)
	if err := writeJSON(filepath.Join(b.workDir, "result.json"), rep); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *update != "" {
		if err := updateGoldens(*update, digests); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		fmt.Fprintf(stdout, "goldens updated: %s\n", *update)
	}
	line, err := json.Marshal(finalLine(rep, b.traced))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	for _, w := range rep.Workloads {
		if !w.Correct {
			return 1
		}
	}
	return 0
}

// parse validates the flags that select the work.
func (b *bench) parse(workloads, seeds string, trace int) error {
	if trace != 0 && trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, not %d", trace)
	}
	if b.seconds <= 0 && b.repeats <= 0 {
		return fmt.Errorf("-seconds must be positive")
	}
	if b.repeats < 0 {
		return fmt.Errorf("-repeats must not be negative")
	}
	if b.profiles < 1 || b.profiles > len(workload.Names()) {
		return fmt.Errorf("-profiles must be 1..%d", len(workload.Names()))
	}
	// A6 interleaves eight processes with 5000-instruction quanta; below
	// one quantum the campaign would not exercise it.
	if b.insts < a6Quantum {
		return fmt.Errorf("-insts must be at least %d", a6Quantum)
	}
	for _, w := range strings.Split(workloads, ",") {
		w = strings.TrimSpace(w)
		switch {
		case w == "all":
			b.workloads = append(b.workloads, allWorkloads...)
		case slices.Contains(allWorkloads, w):
			b.workloads = append(b.workloads, w)
		default:
			return fmt.Errorf("unknown workload %q (have %s, all)", w, strings.Join(allWorkloads, ", "))
		}
	}
	for _, s := range strings.Split(seeds, ",") {
		seed, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
		if err != nil {
			return fmt.Errorf("-seed: %q is not an integer", s)
		}
		b.seeds = append(b.seeds, seed)
	}
	return nil
}

// group is the repeats of one workload at one seed.
type group struct {
	workload string
	seed     int64
	samples  []*sample
	problems []string
	notes    []string
	crashed  bool   // a repeat exited without a sample
	digest   string // the output every repeat agreed on, if they did
}

// report is the result file: every sample, its summary and the host it
// ran on, which -compare reads back.
type report struct {
	Schema    string           `json:"schema"`
	Host      hostInfo         `json:"host"`
	Args      []string         `json:"args"`
	Insts     uint64           `json:"insts"`
	Profiles  int              `json:"profiles"`
	Traced    bool             `json:"traced"`
	Workloads []workloadReport `json:"workloads"`
}

type workloadReport struct {
	Name      string                   `json:"name"`
	Seeds     []int64                  `json:"seeds"`
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Checks    []string                 `json:"checks"`
	Summary   map[string]metricSummary `json:"summary"`
	Samples   []*sample                `json:"samples"`
}

type metricSummary struct {
	Unit string `json:"unit"`
	summary
}

// runAll runs every (workload, seed) group, prints each workload's metrics
// and checks, and writes the traced runs' spans. It returns the report and
// the digests seen, keyed by golden class and scale.
func (b *bench) runAll(stdout io.Writer) (*report, map[[2]string]map[int64]string) {
	rep := &report{Schema: resultSchema, Host: currentHost(), Args: b.args,
		Insts: b.insts, Profiles: b.profiles, Traced: b.traced}
	digests := map[[2]string]map[int64]string{}
	var traced []tracedRun
	scale := scaleKey(b.profiles, b.insts)
	for _, w := range b.workloads {
		var groups []*group
		for _, seed := range b.seeds {
			g := b.runGroup(w, seed)
			b.check(g)
			groups = append(groups, g)
			key := [2]string{goldenClass(w), scale}
			if g.digest != "" {
				if digests[key] == nil {
					digests[key] = map[int64]string{}
				}
				digests[key][seed] = g.digest
			}
			for i, s := range g.samples {
				if s.Traced {
					traced = append(traced, tracedRun{workload: w, seed: seed, repeat: i, spans: s.Spans})
				}
				s.Spans = nil
			}
		}
		wr := b.summarizeWorkload(w, groups)
		printWorkload(stdout, wr, b, groups)
		rep.Workloads = append(rep.Workloads, wr)
	}
	if b.traced {
		path := filepath.Join(b.workDir, "spans.json")
		if err := writeSpans(path, traced); err != nil {
			fmt.Fprintln(b.stderr, "bench: spans:", err)
		} else {
			fmt.Fprintf(stdout, "spans written: %s (Chrome trace-event JSON; open in Perfetto)\n", path)
		}
	}
	return rep, digests
}

// runGroup runs the repeats of one workload at one seed: a fixed count
// with -repeats, otherwise as many as fit in -seconds (at least one of
// each kind). Traced runs alternate untraced and traced repeats, so the
// two see the same host conditions.
func (b *bench) runGroup(w string, seed int64) *group {
	g := &group{workload: w, seed: seed}
	kinds := []bool{false}
	if b.traced {
		kinds = []bool{false, true}
	}
	deadline, limit := time.Now().Add(b.seconds), time.Now().Add(hardLimit)
	took := map[bool][]float64{}
	for i := 0; ; i++ {
		traced := kinds[i%len(kinds)]
		if b.repeats > 0 {
			if i >= b.repeats*len(kinds) {
				break
			}
		} else if i >= len(kinds) {
			est := summarize(took[traced]).Median
			if time.Now().Add(time.Duration(est * 1e9)).After(deadline) {
				break
			}
		}
		if time.Now().After(limit) {
			g.notes = append(g.notes, fmt.Sprintf("seed %d: stopped after %d repeats at the %s limit", seed, len(g.samples), hardLimit))
			break
		}
		t := time.Now()
		s, err := b.spawn(w, seed, traced, limit)
		took[traced] = append(took[traced], time.Since(t).Seconds())
		if err != nil {
			g.problems = append(g.problems, err.Error())
			g.crashed = true
			break
		}
		g.samples = append(g.samples, s)
	}
	return g
}

// spawn runs one repeat in a fresh child process and adds its peak RSS.
func (b *bench) spawn(w string, seed int64, traced bool, limit time.Time) (*sample, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{childArg, "-workload", w, "-seed", strconv.FormatInt(seed, 10),
		"-insts", strconv.FormatUint(b.insts, 10), "-profiles", strconv.Itoa(b.profiles),
		"-work-dir", b.workDir, "-spawned", strconv.FormatInt(time.Now().UnixNano(), 10)}
	if traced {
		args = append(args, "-traced")
	}
	ctx, cancel := context.WithDeadline(context.Background(), limit)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = b.stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s seed %d: repeat failed: %w", w, seed, err)
	}
	s := &sample{}
	if err := json.Unmarshal(out.Bytes(), s); err != nil {
		return nil, fmt.Errorf("%s seed %d: unreadable repeat output: %w", w, seed, err)
	}
	// Linux reports the child's maximum resident set in KiB.
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.Metrics["peak_rss_mib"] = float64(ru.Maxrss) / 1024
	}
	return s, nil
}

// check applies the correctness rules to one group: no failed cells, no
// violated invariant, every repeat (traced or not) rendering the same
// output, and that output matching the golden digest where one exists.
// An output that passes all but the last is kept as the group's digest.
func (b *bench) check(g *group) {
	digests := map[string]int{}
	for _, s := range g.samples {
		g.problems = append(g.problems, s.Problems...)
		if s.Failed > 0 {
			g.problems = append(g.problems, fmt.Sprintf("%d of %d cells failed", s.Failed, s.Cells))
		}
		digests[s.Digest]++
	}
	if len(digests) > 1 {
		g.problems = append(g.problems, fmt.Sprintf("seed %d: repeats disagree (%d distinct outputs)", g.seed, len(digests)))
		return
	}
	if len(g.samples) == 0 {
		g.problems = append(g.problems, fmt.Sprintf("seed %d: no repeat finished", g.seed))
		return
	}
	got := g.samples[0].Digest
	if len(g.problems) == 0 {
		g.digest = got
	}
	if b.updating {
		return
	}
	goldens, err := parseGoldens(goldenJSON)
	if err != nil {
		g.problems = append(g.problems, err.Error())
		return
	}
	class, scale := goldenClass(g.workload), scaleKey(b.profiles, b.insts)
	want, ok := goldens.lookup(class, scale, g.seed)
	switch {
	case !ok:
		g.notes = append(g.notes, fmt.Sprintf("seed %d: output identical across %d repeats; no %s golden at %s", g.seed, len(g.samples), class, scale))
	case want != got:
		g.problems = append(g.problems, fmt.Sprintf("seed %d: output digest %.12s does not match the %s golden %.12s at %s", g.seed, got, class, want, scale))
	default:
		g.notes = append(g.notes, fmt.Sprintf("seed %d: output identical across %d repeats and equal to the %s golden at %s", g.seed, len(g.samples), class, scale))
	}
}

// summarizeWorkload pools one workload's groups: end-to-end and report
// metrics from untraced repeats, per-layer metrics from traced ones, and
// the tracing overhead from the two medians of each group.
func (b *bench) summarizeWorkload(w string, groups []*group) workloadReport {
	wr := workloadReport{Name: w, Correct: true, Summary: map[string]metricSummary{}}
	values := func(name string, traced bool) []float64 {
		var xs []float64
		for _, g := range groups {
			for _, s := range g.samples {
				if v, ok := s.Metrics[name]; ok && s.Traced == traced {
					xs = append(xs, v)
				}
			}
		}
		return xs
	}
	add := func(m metric, xs []float64) {
		if len(xs) > 0 {
			wr.Summary[m.Name] = metricSummary{Unit: m.Unit, summary: summarize(xs)}
		}
	}
	for _, m := range slices.Concat(endToEnd, reportOnly) {
		add(m, values(m.Name, false))
	}
	var overheads []float64
	for _, g := range groups {
		wr.Seeds = append(wr.Seeds, g.seed)
		wr.Samples = append(wr.Samples, g.samples...)
		wr.Checks = append(wr.Checks, g.notes...)
		wr.Checks = append(wr.Checks, g.problems...)
		if len(g.problems) > 0 {
			wr.Correct = false
		}
		if g.crashed {
			wr.Attempted++
			wr.Failed++
		}
		for _, s := range g.samples {
			wr.Attempted += s.Cells
			wr.Failed += s.Failed
		}
		if b.traced {
			var plain, traced []float64
			for _, s := range g.samples {
				if s.Traced {
					traced = append(traced, s.Metrics["wall_s"])
				} else {
					plain = append(plain, s.Metrics["wall_s"])
				}
			}
			if len(plain) > 0 && len(traced) > 0 {
				overheads = append(overheads, summarize(traced).Median/summarize(plain).Median-1)
			}
		}
	}
	if b.traced {
		for _, m := range perLayer {
			if m.Name == "bench.trace_overhead_frac" {
				add(m, overheads)
				continue
			}
			add(m, values(m.Name, true))
		}
	}
	return wr
}

// printWorkload prints one workload's metrics as "name value unit" with
// quartiles and sample count, then its correctness checks.
func printWorkload(out io.Writer, wr workloadReport, b *bench, groups []*group) {
	plain, traced := 0, 0
	for _, g := range groups {
		for _, s := range g.samples {
			if s.Traced {
				traced++
			} else {
				plain++
			}
		}
	}
	fmt.Fprintf(out, "%s: %d profiles x %d insts, seeds %v, %d untraced + %d traced repeats\n",
		wr.Name, b.profiles, b.insts, wr.Seeds, plain, traced)
	sets := [][]metric{endToEnd, reportOnly}
	if b.traced {
		sets = append(sets, perLayer)
	}
	for _, set := range sets {
		for _, m := range set {
			if s, ok := wr.Summary[m.Name]; ok {
				fmt.Fprintf(out, "  %s %.6g %s q1=%.6g q3=%.6g n=%d\n", m.Name, s.Median, m.Unit, s.Q1, s.Q3, s.N)
			}
		}
	}
	for _, c := range wr.Checks {
		fmt.Fprintf(out, "  check: %s\n", c)
	}
	verdict := "correct"
	if !wr.Correct {
		verdict = "INCORRECT"
	}
	fmt.Fprintf(out, "  %s: %d attempted, %d failed\n\n", verdict, wr.Attempted, wr.Failed)
}

// valueUnit is one metric of the final line.
type valueUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]valueUnit `json:"metrics"`
}

// finalLine reports the end-to-end metrics of an untraced run, or the
// per-layer metrics of a traced one, as medians. With several workloads
// each name is prefixed with its workload.
func finalLine(rep *report, traced bool) resultLine {
	line := resultLine{Correct: true, Metrics: map[string]valueUnit{}}
	set := endToEnd
	if traced {
		set = perLayer
	}
	for _, w := range rep.Workloads {
		line.Correct = line.Correct && w.Correct
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for _, m := range set {
			s, ok := w.Summary[m.Name]
			if !ok || math.IsNaN(s.Median) || math.IsInf(s.Median, 0) {
				continue
			}
			name := m.Name
			if len(rep.Workloads) > 1 {
				name = w.Name + "." + name
			}
			line.Metrics[name] = valueUnit{Value: s.Median, Unit: m.Unit}
		}
	}
	return line
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// hostInfo identifies the machine class a result was measured on;
// -compare refuses results from different ones.
type hostInfo struct {
	CPUs       int    `json:"host_cpus"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPUModel   string `json:"cpu_model"`
}

func currentHost() hostInfo {
	h := hostInfo{CPUs: runtime.NumCPU(), GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), CPUModel: "unknown"}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return h
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			h.CPUModel = strings.TrimSpace(v)
			break
		}
	}
	return h
}
