// Command portbench regenerates every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index) and prints them as plain-
// text tables. EXPERIMENTS.md is produced from this command's output.
//
// Usage:
//
//	portbench [-quick] [-insts n] [-seed n] [-only T1,F6,...] [-csv]
//	          [-parallel n] [-arena-budget size] [-progress[=rich|plain]]
//	          [-inject mode:workload[:after]] [-repro-dir dir]
//	          [-store dir] [-resume] [-inject-store mode[:rate]]
//	          [-cpistack] [-listen addr] [-manifest path] [-hold d]
//	          [-trace-out path] [-trace-cell workload@machine] [-trace-depth n]
//	portbench -repro bundle.json
//
// Simulations run on a bounded worker pool (-parallel, default GOMAXPROCS);
// results are merged in submission order, so every table is byte-identical
// to a -parallel 1 run.
//
// Experiment cells are crash-contained: a failed cell (panic, deadline,
// watchdog stall) fails its experiment but the suite continues, rendering
// every healthy table. Each distinct cell failure is reported once with its
// machine configuration, stack and flight-recorder tail, and a JSON repro
// bundle is written next to the run (-repro-dir); `portbench -repro` replays
// a bundle deterministically with the flight recorder armed. Bundles
// describe every kind of cell, A6's multiprogrammed ones included.
//
// Durable campaigns (-store, see EXPERIMENTS.md "Durable campaigns"):
// every finished cell — result or deterministic failure — is written
// crash-safely to a content-addressed store, so a killed campaign rerun
// with the same -store restores its finished cells instead of
// re-simulating them. Tables are byte-identical with the store on, off,
// cold or warm; corrupt entries are quarantined (*.corrupt) and
// re-simulated, and a broken store degrades to store-less operation
// rather than failing the run. -inject-store drives those paths on
// purpose for robustness testing.
//
// Trace arenas (see DESIGN.md "Trace arenas"): each (workload, seed)
// dynamic trace is generated once into an immutable in-memory arena and
// replayed by every cell that needs it. -arena-budget (default 512MiB;
// off shares none) bounds the arenas kept; a trace that does not fit is
// built for its cell alone. Tables are byte-identical at any budget,
// serial or parallel.
//
// Observability (all opt-in, see README.md "Observability"): -listen
// serves live campaign metrics over HTTP (/metrics Prometheus text,
// /healthz, /campaign live campaign status, /debug/pprof runtime
// profiles with per-cell labels); -manifest writes a
// portsim-manifest/v1 run manifest; -trace-out replays one planned cell
// (-trace-cell) from its repro bundle after the suite and writes its
// pipeline events as a Chrome trace-event JSON for Perfetto; -cpistack
// arms per-cell cycle accounting (CPI stacks: a table after the suite,
// cpi_stack sections in the manifest, portsim_cpi_* series on /metrics,
// a cpi counter track in the Perfetto trace). Under -listen, -manifest,
// -cpistack, -progress or -cpuprofile every simulated cell carries pprof
// labels (cell, experiment, workload, machine). Tables are byte-identical
// whether any of these are on or off.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/diag"
	"portsim/internal/experiments"
	"portsim/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "portbench:", err)
		os.Exit(1)
	}
}

// run executes the experiment suite; split from main for testability.
func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("portbench", flag.ContinueOnError)
	var (
		quick    = fs.Bool("quick", false, "reduced workload set and instruction budget")
		insts    = fs.Uint64("insts", 0, "override the committed-instruction budget per run")
		seed     = fs.Int64("seed", 42, "workload generator seed")
		only     = fs.String("only", "", "comma-separated experiment ids to run (default: all)")
		csv      = fs.Bool("csv", false, "emit tables as CSV instead of aligned text")
		parallel = fs.Int("parallel", 0, "concurrent simulations (<=0: GOMAXPROCS); tables are byte-identical at any setting")
		arena    = fs.String("arena-budget", "", "shared trace-arena byte budget (e.g. 256MiB, 1g; off shares none); tables are byte-identical at any setting")
		inject   = fs.String("inject", "", "poison one workload's cells: mode:workload[:after] with mode panic|badinst|wedge; after counts instructions as fetch's 128-instruction read-ahead pulls them, so a panic fires up to 128 instructions before fetch reaches instruction after+1")
		repro    = fs.String("repro", "", "replay a repro bundle file instead of running the suite")
		reproDir = fs.String("repro-dir", ".", "directory for repro bundles written on cell failure")

		storeDir    = fs.String("store", "", "durable cell store directory: finished cells are written crash-safely and restored by later runs")
		resume      = fs.Bool("resume", false, "resume a previous campaign from -store (the store directory must already exist)")
		injectStore = fs.String("inject-store", "", "inject store failures: mode[:rate] with mode torn|corrupt|ioerr, rate in (0,1]")

		cpistack = fs.Bool("cpistack", false, "collect per-cell cycle-accounting CPI stacks: table after the suite, cpi_stack in -manifest, portsim_cpi_* on /metrics; tables are byte-identical either way")

		listen     = fs.String("listen", "", "serve live campaign metrics over HTTP on this address (/metrics, /healthz, /campaign, /debug/pprof)")
		manifest   = fs.String("manifest", "", "write a portsim-manifest/v1 run manifest (JSON) to this path")
		hold       = fs.Duration("hold", 0, "keep the -listen endpoint up this long after the suite finishes")
		traceOut   = fs.String("trace-out", "", "after the suite, replay one planned cell and write its Chrome trace-event JSON (Perfetto) to this path")
		traceCell  = fs.String("trace-cell", "", "cell to trace as workload@machine (default: first workload on the baseline machine)")
		traceDepth = fs.Int("trace-depth", 0, "trace event-ring depth (default 1Mi events)")

		cpuprofile   = fs.String("cpuprofile", "", "write a CPU profile of the suite to this file")
		memprofile   = fs.String("memprofile", "", "write a post-GC heap profile to this file at exit")
		allocprofile = fs.String("allocprofile", "", "write an allocation profile (every malloc since start) to this file at exit")
	)
	var progress progressMode
	fs.Var(&progress, "progress", "report completed cells on stderr: rich status line, or plain for one line per cell")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *repro != "" {
		return runRepro(*repro, out)
	}
	chosen, err := parseOnly(*only)
	if err != nil {
		return err
	}

	spec := experiments.DefaultSpec()
	if *quick {
		spec = experiments.QuickSpec()
	}
	if *insts > 0 {
		spec.Insts = *insts
	}
	spec.Seed = *seed
	spec.Parallel = *parallel
	spec.CPIStack = *cpistack
	budget, err := experiments.ParseArenaBudget(*arena)
	if err != nil {
		return err
	}
	spec.ArenaBudget = budget
	if *inject != "" {
		fault, err := experiments.ParseFault(*inject)
		if err != nil {
			return err
		}
		spec.Fault = fault
	}
	var store *cellstore.Store
	var storeFault *cellstore.Fault
	if *storeDir == "" {
		if *resume {
			return fmt.Errorf("-resume needs -store")
		}
		if *injectStore != "" {
			return fmt.Errorf("-inject-store needs -store")
		}
	} else {
		if *injectStore != "" {
			f, err := cellstore.ParseFault(*injectStore)
			if err != nil {
				return err
			}
			storeFault = f
		}
		if *resume {
			if _, err := os.Stat(*storeDir); err != nil {
				return fmt.Errorf("-resume: store %s: %w (nothing to resume; drop -resume to start one)", *storeDir, err)
			}
		}
		st, err := cellstore.Open(*storeDir, cellstore.Options{
			Fault: storeFault,
			Logf: func(format string, a ...any) {
				fmt.Fprintf(os.Stderr, "portbench: "+format+"\n", a...)
			},
		})
		if err != nil {
			return err
		}
		defer st.Close()
		store = st
		spec.Store = store
	}
	var traced *experiments.Bundle
	if *traceOut != "" {
		// Either side of workload@machine may be empty: the spec's first
		// workload, the baseline machine. A cell no selected experiment
		// plans fails here, before a campaign that could not trace it.
		w, m, _ := strings.Cut(*traceCell, "@")
		if w == "" && len(spec.Workloads) > 0 {
			w = spec.Workloads[0]
		}
		if m == "" {
			m = config.Baseline().Name
		}
		if traced, err = experiments.CellBundle(spec, chosen, w, m); err != nil {
			return fmt.Errorf("-trace-cell: %w", err)
		}
	} else if *traceCell != "" || *traceDepth != 0 {
		return fmt.Errorf("-trace-cell and -trace-depth need -trace-out")
	}

	prof, err := startProfiles(*cpuprofile, *memprofile, *allocprofile)
	if err != nil {
		return err
	}
	defer func() {
		if err := prof.stop(); err != nil {
			fmt.Fprintln(os.Stderr, "portbench: profile:", err)
		}
	}()

	fmt.Fprintf(out, "portbench: %d workloads x %d instructions, seed %d\n\n",
		len(spec.Workloads), spec.Insts, spec.Seed)
	runner := experiments.NewRunner(spec)
	start := time.Now()

	// Telemetry is strictly opt-in: with every flag off the runner's
	// observer slot stays nil and no campaign state exists at all.
	var sink *telemetrySink
	// A CPU profile takes the sink too: its cell observer labels each
	// simulation with its cell and experiment for go tool pprof -tags.
	if progress != progressOff || *listen != "" || *manifest != "" || *cpistack || *cpuprofile != "" {
		planned := 0
		for _, e := range chosen {
			planned += len(e.Cells(spec))
		}
		s, err := newTelemetrySink(runner, spec, planned, progress, *listen, store)
		if err != nil {
			return err
		}
		sink = s
		defer sink.close(*hold)
	}

	var failed []string
	var failures []error
	var ranIDs []string
	for _, e := range chosen {
		ranIDs = append(ranIDs, e.ID)
		runner.SetExperiment(e.ID)
		table, err := e.Run(runner)
		if err != nil {
			// One poisoned cell must not abandon the campaign: record the
			// failure, keep rendering every healthy table, and report the
			// forensics (with repro bundles) after the suite.
			failed = append(failed, e.ID)
			failures = append(failures, err)
			fmt.Fprintf(out, "%s: FAILED: %s\n\n", e.ID, failureText(err))
			continue
		}
		if *csv {
			fmt.Fprintln(out, table.CSV())
		} else {
			fmt.Fprintln(out, table.String())
		}
	}
	if sink != nil {
		sink.printer.finish()
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "total wall time: %s\n", elapsed.Round(time.Millisecond))
	if runner.SimulatedCycles() > 0 {
		// A near-zero elapsed time (a tiny -insts spec on a fast host)
		// would print +Inf or absurd throughput; clamp the divisor to a
		// microsecond so the report stays finite and honest about the
		// timer's resolution.
		const minSecs = 1e-6
		secs := elapsed.Seconds()
		if secs < minSecs {
			secs = minSecs
		}
		fmt.Fprintf(out, "simulated %d cycles / %d instructions (%.2f Mcycles/s, %.2f Minsts/s host throughput)\n",
			runner.SimulatedCycles(), runner.SimulatedInstructions(),
			float64(runner.SimulatedCycles())/secs/1e6,
			float64(runner.SimulatedInstructions())/secs/1e6)
	}
	if store != nil {
		st := store.Stats()
		line := fmt.Sprintf("store: %d restored, %d simulated, %d written", st.Hits, st.Misses, st.Puts)
		if st.Quarantined > 0 {
			line += fmt.Sprintf(", %d quarantined", st.Quarantined)
		}
		if st.Degraded {
			line += " (degraded: finished store-less)"
		}
		fmt.Fprintln(out, line)
	}
	if ast, ok := runner.ArenaStats(); ok {
		line := fmt.Sprintf("arenas: %d built, %d replays, %d resident (%s of %s budget)",
			ast.Builds, ast.Hits, ast.Count, byteSize(ast.Bytes), byteSize(ast.Budget))
		if ast.Fallbacks > 0 {
			line += fmt.Sprintf(", %d fallbacks", ast.Fallbacks)
		}
		fmt.Fprintln(out, line)
	}
	if traced != nil {
		if err := writeTrace(out, traced, *traceDepth, *cpistack, *traceOut); err != nil {
			return err
		}
	}
	cells := 0
	var bundles []string
	if len(failures) > 0 {
		cells, bundles = reportFailures(out, failures, *reproDir)
	}
	if *manifest != "" {
		info := telemetry.ManifestInfo{
			CreatedAt:   time.Now(),
			Command:     append([]string{"portbench"}, args...),
			Seed:        spec.Seed,
			Insts:       spec.Insts,
			Workloads:   spec.Workloads,
			Parallel:    runner.Parallel(),
			Experiments: ranIDs,
			TraceOut:    *traceOut,
			Bundles:     bundles,
			WallSeconds: elapsed.Seconds(),
		}
		if store != nil {
			st := store.Stats()
			fault := ""
			if storeFault != nil {
				fault = storeFault.String()
			}
			info.Store = &telemetry.ManifestStore{
				Dir:         *storeDir,
				Resumed:     *resume,
				Fault:       fault,
				Hits:        st.Hits,
				Misses:      st.Misses,
				Puts:        st.Puts,
				PutFailures: st.PutFailures,
				Quarantined: st.Quarantined,
				Degraded:    st.Degraded,
			}
		}
		if ast, ok := runner.ArenaStats(); ok {
			info.Arenas = &telemetry.ManifestArenas{
				BudgetBytes: ast.Budget,
				Count:       ast.Count,
				Bytes:       ast.Bytes,
				Builds:      ast.Builds,
				Hits:        ast.Hits,
				Fallbacks:   ast.Fallbacks,
			}
		}
		if err := telemetry.WriteManifest(*manifest, sink.camp.BuildManifest(info)); err != nil {
			return fmt.Errorf("manifest: %w", err)
		}
		fmt.Fprintf(out, "manifest written: %s\n", *manifest)
	}
	// The CPI table is deliberately the last output: byte-identity checks
	// between -cpistack on and off strip it with one sed range anchored on
	// the "CPI stacks" title line.
	if *cpistack {
		table := cpiTable(sink.camp.Cells())
		if *csv {
			fmt.Fprintln(out, table.CSV())
		} else {
			fmt.Fprintln(out, table.String())
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("%d experiment(s) failed (%s) with %d distinct cell failure(s)",
			len(failed), strings.Join(failed, ","), cells)
	}
	return nil
}

// parseOnly returns the experiments a -only list selects, in campaign
// order (ids are case-insensitive; an empty list selects every
// experiment). Every id must name an experiment of experiments.Suite: a
// typo fails the run before anything is built, instead of silently running
// the rest.
func parseOnly(list string) ([]experiments.Experiment, error) {
	suite := experiments.Suite()
	ids := make([]string, len(suite))
	for i, e := range suite {
		ids[i] = e.ID
	}
	selected := map[string]bool{}
	var unknown []string
	for _, id := range strings.Split(list, ",") {
		id = strings.TrimSpace(strings.ToUpper(id))
		switch {
		case id == "":
		case slices.Contains(ids, id):
			selected[id] = true
		default:
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("-only: unknown experiment id(s) %s (valid: %s)",
			strings.Join(unknown, ","), strings.Join(ids, ","))
	}
	return slices.DeleteFunc(suite, func(e experiments.Experiment) bool {
		return len(selected) > 0 && !selected[e.ID]
	}), nil
}

// cellFailures returns the cell failures an experiment's error joins, in
// submission order; an error that joins none is one failure itself.
func cellFailures(err error) []error {
	j, ok := err.(interface{ Unwrap() []error })
	if !ok {
		return []error{err}
	}
	var out []error
	for _, e := range j.Unwrap() {
		out = append(out, cellFailures(e)...)
	}
	return out
}

// failureText renders an experiment's error with each distinct cell
// failure message once, in order of first appearance, led by the number
// of cells that failed with it when more than one did. A plain failure
// such as the arena ceiling names no cell, so every cell it stops fails
// with the same message.
func failureText(err error) string {
	var msgs []string
	cells := map[string]int{}
	for _, f := range cellFailures(err) {
		msg := f.Error()
		if cells[msg] == 0 {
			msgs = append(msgs, msg)
		}
		cells[msg]++
	}
	for i, msg := range msgs {
		if n := cells[msg]; n > 1 {
			msgs[i] = fmt.Sprintf("%d cells: %s", n, msg)
		}
	}
	return strings.Join(msgs, "\n")
}

// reportFailures prints each distinct cell failure's forensic detail and
// writes its repro bundle, returning the count of distinct cell failures
// and the bundle paths written (for the run manifest). The memo cache
// shares one CellError across every experiment that touched the dead
// cell, so CellErrors are distinct by identity. A plain failure (no
// CellError: the arena ceiling, an unknown workload) has no forensics or
// bundle; plain failures are distinct by message. They stay plain: the
// arena ceiling depends on -arena-budget, which is not part of a cell's
// key, so a stored failure would outlive a larger budget.
func reportFailures(out io.Writer, failures []error, reproDir string) (int, []string) {
	var distinct []*experiments.CellError
	seen := map[*experiments.CellError]bool{}
	plain := map[string]bool{}
	for _, err := range failures {
		for _, ce := range experiments.CellErrors(err) {
			if !seen[ce] {
				seen[ce] = true
				distinct = append(distinct, ce)
			}
		}
		for _, f := range cellFailures(err) {
			var ce *experiments.CellError
			if !errors.As(f, &ce) {
				plain[f.Error()] = true
			}
		}
	}
	var written []string
	for _, ce := range distinct {
		fmt.Fprintf(out, "\n%s\n", ce.Detail())
		name := fmt.Sprintf("portbench-repro-%s-%s.json", sanitizeName(ce.Machine.Name), sanitizeName(ce.Workload))
		path := filepath.Join(reproDir, name)
		bundle, err := ce.Bundle.Encode()
		if err != nil {
			fmt.Fprintf(out, "repro bundle not written: %v\n", err)
			continue
		}
		if err := os.WriteFile(path, bundle, 0o644); err != nil {
			fmt.Fprintf(out, "repro bundle not written: %v\n", err)
			continue
		}
		fmt.Fprintf(out, "repro bundle written: %s (replay with: portbench -repro %s)\n", path, path)
		written = append(written, path)
	}
	return len(distinct) + len(plain), written
}

// sanitizeName makes a machine or workload name safe as a filename chunk.
func sanitizeName(s string) string {
	if s == "" {
		return "unknown"
	}
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		}
		return '_'
	}, s)
}

// byteSize renders a byte count in MiB to one decimal place, or in KiB
// below 1 MiB, so a small arena budget does not print as 0.
func byteSize(n int64) string {
	if n < 1<<20 {
		return fmt.Sprintf("%.1f KiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%.1f MiB", float64(n)/(1<<20))
}

// runRepro replays a repro bundle with the flight recorder armed and prints
// a deterministic report: the failure headline (with the stall diagnosis
// when the watchdog fired) and the flight-recorder tail. Stack traces are
// deliberately omitted — they carry goroutine ids and addresses that vary
// run to run, and the original failure report already included one. The
// command exits non-zero when the failure reproduces.
func runRepro(path string, out io.Writer) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	bundle, err := experiments.ParseBundle(data)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replaying %s: %s on %s (seed %d, %d insts)\n",
		path, bundle.Workload, bundle.Machine.Name, bundle.Seed, bundle.Insts)
	res, err := bundle.Replay(nil, false)
	if err != nil {
		for _, ce := range experiments.CellErrors(err) {
			fmt.Fprintf(out, "\nCELL ERROR: %s\n%s\n", ce.Error(), diag.FormatEvents(ce.Events))
		}
		return fmt.Errorf("failure reproduced: %w", err)
	}
	fmt.Fprintf(out, "did not reproduce: completed %d instructions in %d cycles (IPC %.3f)\n",
		res.Instructions, res.Cycles, res.IPC)
	return nil
}
