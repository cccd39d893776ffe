package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/core"
	"portsim/internal/cpustack"
	"portsim/internal/experiments"
	"portsim/internal/stats"
	"portsim/internal/telemetry"
)

// testListenHook, when set by a test, receives the bound -listen address.
var testListenHook func(addr string)

// cellsPerExperiment returns how many cells each experiment submits for a
// spec with w workloads. Duplicate submissions (memo hits) count: the
// observer fires once per submission, so these figures are what the
// planned gauge and the ETA are measured against.
func cellsPerExperiment(w int) map[string]int {
	return map[string]int{
		"T1": 0,     // static table, no simulation
		"T2": w,     // baseline per workload
		"F1": 3 * w, // port counts 1,2,4
		"F2": 6 * w, // store-buffer depths 1..32
		"F3": 3 * w, // naive widths 8,16,32
		"F4": 5 * w, // line buffers 0,1,2,4,8
		"F5": 4 * w, // 2 depths x combining on/off
		"F6": 3 * w, // single, best-single, dual
		"T3": w,     // best-single per workload
		"T4": 3 * w, // 3 machines
		"F7": 12,    // 4 kernel intensities x 3 machines (database only)
		"A1": 7 * w, // dual ratio column + 6 ablation configs
		"A2": 7 * w, // dual ratio column + 6 banking configs
		"A3": 3 * w, // single, single+pf, best+pf
		"A4": 2 * w, // conservative, speculative
		"A5": 3 * w, // write-back, write-through, WT+combining
		"A6": 12,    // 4 multiprogramming levels x 3 machines (compress only)
		"A7": 2 * w, // loads-first, stores-first
		"A8": 2 * w, // idealised, wrong-path
	}
}

// plannedCells counts the cells the selected experiments will submit.
func plannedCells(spec experiments.Spec, want func(string) bool) int {
	per := cellsPerExperiment(len(spec.Workloads))
	total := 0
	for _, e := range suite {
		if want(e.id) {
			total += per[e.id]
		}
	}
	return total
}

// parseTraceCell splits a -trace-cell value ("workload@machine") into its
// parts; either side may be empty to take the default (first workload of
// the spec, baseline machine).
func parseTraceCell(s string, spec experiments.Spec) (workload, machine string, err error) {
	workload, machine, _ = strings.Cut(s, "@")
	if workload == "" {
		if len(spec.Workloads) == 0 {
			return "", "", fmt.Errorf("trace cell: no workloads in spec")
		}
		workload = spec.Workloads[0]
	}
	if machine == "" {
		machine = config.Baseline().Name
	}
	return workload, machine, nil
}

// cellSample converts a runner cell event into the telemetry snapshot:
// identity, outcome and the port rates derived from the final counters.
// Everything here runs once per cell, after the simulation finished —
// never inside the cycle loop.
func cellSample(ev experiments.CellEvent) telemetry.CellSample {
	s := telemetry.CellSample{
		Machine:         ev.Machine,
		Workload:        ev.Workload,
		ConfigJSON:      ev.ConfigJSON,
		Key:             ev.Key,
		MemoHit:         ev.MemoHit,
		StoreHit:        ev.StoreHit,
		WallSeconds:     ev.WallSeconds,
		PortUtilization: -1,
		PortRejectRate:  -1,
		// Set even for failed cells: a wedged cell's partial stack is the
		// diagnosis (which bucket ate the cycles before the watchdog fired).
		CPIStack: ev.CPIStack,
	}
	if ev.Err != nil {
		s.Failed = true
		s.Error = ev.Err.Error()
		return s
	}
	res := ev.Result
	s.Cycles = res.Cycles
	s.Insts = res.Instructions
	m, err := config.FromJSON(ev.ConfigJSON)
	if err != nil {
		return s
	}
	slots := core.SlotsPerCycle(m.Ports)
	c := res.Counters
	s.PortUtilization = stats.SafeRatio(
		float64(c.Get(stats.PortGrants)),
		float64(c.Get(stats.PortCycles))*float64(slots))
	rejects := stats.PortRejects(c)
	s.PortRejectRate = stats.SafeRatio(
		float64(rejects),
		float64(c.Get(stats.PortLoadAccesses)+rejects))
	return s
}

// telemetrySink owns the optional observability surfaces of a portbench
// run: the live-metrics registry and HTTP server, the campaign
// accumulator behind /metrics and the manifest, and the progress printer.
type telemetrySink struct {
	camp    *telemetry.Campaign
	srv     *telemetry.Server
	printer *progressPrinter

	// cpiRows collects each distinct cell's frozen CPI stack for the
	// end-of-run table (-cpistack). Memo hits are skipped — the first
	// delivery of a cell already captured it.
	cpiMu   sync.Mutex
	cpiRows map[string]cpiRow
}

// cpiRow is one line of the CPI-stack table.
type cpiRow struct {
	workload, machine, hash string
	failed                  bool
	snap                    *cpustack.Snapshot
}

// newTelemetrySink wires the campaign metrics, the runner's cell
// observer and, when requested, the HTTP endpoint. The caller only
// constructs a sink when some telemetry flag is set; otherwise the
// runner's observer slot stays nil — the zero-cost path.
func newTelemetrySink(runner *experiments.Runner, spec experiments.Spec,
	planned int, mode progressMode, listen string, store *cellstore.Store) (*telemetrySink, error) {
	reg := telemetry.NewRegistry()
	sink := &telemetrySink{
		camp:    telemetry.NewCampaign(reg, planned),
		cpiRows: make(map[string]cpiRow),
	}
	if spec.CPIStack {
		sink.camp.EnableCPIStack(reg)
	}
	if store != nil {
		reg.GaugeFunc("portsim_store_quarantined_total",
			"Corrupt cell-store entries quarantined (moved to *.corrupt) this run.",
			func() float64 { return float64(store.Stats().Quarantined) })
		reg.GaugeFunc("portsim_store_degraded",
			"1 when the cell store has degraded to store-less operation, else 0.",
			func() float64 {
				if store.Stats().Degraded {
					return 1
				}
				return 0
			})
	}
	if _, ok := runner.ArenaStats(); ok {
		reg.GaugeFunc("portsim_arena_count",
			"Trace arenas resident in the shared registry.",
			func() float64 {
				st, _ := runner.ArenaStats()
				return float64(st.Count)
			})
		reg.GaugeFunc("portsim_arena_bytes",
			"Bytes held by resident trace arenas.",
			func() float64 {
				st, _ := runner.ArenaStats()
				return float64(st.Bytes)
			})
		reg.GaugeFunc("portsim_arena_hits_total",
			"Cell acquisitions served from an already-materialised trace arena.",
			func() float64 {
				st, _ := runner.ArenaStats()
				return float64(st.Hits)
			})
		reg.GaugeFunc("portsim_arena_fallbacks_total",
			"Cell acquisitions that ran from live generation because the arena budget had no room.",
			func() float64 {
				st, _ := runner.ArenaStats()
				return float64(st.Fallbacks)
			})
		reg.GaugeFunc("portsim_arena_evictions_total",
			"Idle trace arenas dropped to make room under the byte budget.",
			func() float64 {
				st, _ := runner.ArenaStats()
				return float64(st.Evictions)
			})
		reg.GaugeFunc("portsim_arena_budget_bytes",
			"Configured trace-arena byte budget.",
			func() float64 {
				st, _ := runner.ArenaStats()
				return float64(st.Budget)
			})
	}
	sink.printer = newProgressPrinter(mode, os.Stderr, planned, sink.camp)
	runner.SetCellObserver(func(ev experiments.CellEvent) {
		s := cellSample(ev)
		sink.noteCPI(s)
		sink.camp.CellDone(s)
		sink.printer.cellDone(s)
	}, time.Now)
	runner.SetCellStartObserver(func(cs experiments.CellStart) {
		sink.camp.CellStarted(telemetry.CellStartSample{
			Machine:    cs.Machine,
			Workload:   cs.Workload,
			ConfigJSON: cs.ConfigJSON,
			Experiment: cs.Experiment,
			Stack:      cs.Stack,
		})
	})
	if listen != "" {
		srv, err := telemetry.Serve(listen, reg)
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		srv.SetCampaign(sink.camp)
		sink.srv = srv
		fmt.Fprintf(os.Stderr, "telemetry: listening on %s\n", srv.Addr())
		if testListenHook != nil {
			testListenHook(srv.Addr())
		}
	}
	return sink, nil
}

// noteCPI records a cell's frozen CPI stack for the end-of-run table. A
// memo hit re-delivers a stack the first delivery already recorded; a
// store hit restores one from a previous campaign and is kept.
func (t *telemetrySink) noteCPI(s telemetry.CellSample) {
	if s.CPIStack == nil || s.MemoHit {
		return
	}
	key := s.Workload + "\x00" + s.Machine + "\x00" + telemetry.HashConfig(s.ConfigJSON)
	t.cpiMu.Lock()
	t.cpiRows[key] = cpiRow{
		workload: s.Workload,
		machine:  s.Machine,
		hash:     telemetry.HashConfig(s.ConfigJSON),
		failed:   s.Failed,
		snap:     s.CPIStack,
	}
	t.cpiMu.Unlock()
}

// cpiTable renders the collected stacks, one row per distinct cell sorted
// by (workload, machine, config hash), one percentage column per bucket.
// The title line starts with "CPI stacks" so byte-identity comparisons can
// strip the block with a single sed range.
func (t *telemetrySink) cpiTable() *stats.Table {
	t.cpiMu.Lock()
	rows := make([]cpiRow, 0, len(t.cpiRows))
	for _, r := range t.cpiRows {
		rows = append(rows, r)
	}
	t.cpiMu.Unlock()
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		if a.workload != b.workload {
			return a.workload < b.workload
		}
		if a.machine != b.machine {
			return a.machine < b.machine
		}
		return a.hash < b.hash
	})
	header := []string{"workload", "machine", "cycles"}
	for b := cpustack.Bucket(0); b < cpustack.NumBuckets; b++ {
		header = append(header, b.String())
	}
	tbl := stats.NewTable("CPI stacks: % of simulated cycles per attribution bucket", header...)
	for _, r := range rows {
		total := r.snap.Total()
		machine := r.machine
		if r.failed {
			machine += " (failed)"
		}
		cells := []string{r.workload, machine, strconv.FormatUint(total, 10)}
		for b := cpustack.Bucket(0); b < cpustack.NumBuckets; b++ {
			if total == 0 {
				cells = append(cells, "-")
				continue
			}
			cells = append(cells, stats.Percent(float64(r.snap.Get(b))/float64(total)))
		}
		tbl.AddRow(cells...)
	}
	return tbl
}

// close shuts the metrics endpoint down, first holding it open for the
// requested grace period so external scrapers (CI smoke tests, a curl in
// another terminal) can observe the finished campaign. Shutdown is
// graceful: a scrape in flight at the end of the hold completes rather
// than seeing a reset connection.
func (t *telemetrySink) close(hold time.Duration) {
	if t == nil || t.srv == nil {
		return
	}
	if hold > 0 {
		fmt.Fprintf(os.Stderr, "telemetry: holding metrics endpoint for %s\n", hold)
		time.Sleep(hold)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := t.srv.Shutdown(ctx); err != nil {
		t.srv.Close()
	}
}

// writeTrace converts the runner's captured flight-recorder events into
// a Chrome trace-event JSON file for Perfetto / chrome://tracing.
func writeTrace(out io.Writer, runner *experiments.Runner, path string) error {
	cap := runner.Trace()
	if cap == nil {
		fmt.Fprintf(os.Stderr, "telemetry: trace cell %s@%s never ran; no trace written\n",
			runner.Spec().Trace.Workload, runner.Spec().Trace.Machine)
		return nil
	}
	trace, err := telemetry.BuildTrace(cap.Events, telemetry.TraceMeta{
		Machine:  cap.Machine,
		Workload: cap.Workload,
		Seed:     cap.Seed,
		Lanes:    cap.Lanes,
		Dropped:  cap.Dropped,
		Total:    cap.Total,
	})
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	data, err := trace.Encode()
	if err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	fmt.Fprintf(out, "trace written: %s (%d events, %d dropped; open in ui.perfetto.dev)\n",
		path, len(cap.Events), cap.Dropped)
	return nil
}
