package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/core"
	"portsim/internal/cpustack"
	"portsim/internal/diag"
	"portsim/internal/experiments"
	"portsim/internal/stats"
	"portsim/internal/telemetry"
)

// testListenHook, when set by a test, receives the bound -listen address.
var testListenHook func(addr string)

// defaultTraceDepth is -trace-depth's default: deep enough for the full
// event stream of a quick cell, shallow enough to stay tens of megabytes.
const defaultTraceDepth = 1 << 20

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
// run: the campaign record behind /metrics, /campaign, the manifest and
// the CPI table, the HTTP server, and the progress printer.
type telemetrySink struct {
	camp    *telemetry.Campaign
	srv     *telemetry.Server
	printer *progressPrinter
}

// newTelemetrySink wires the campaign record, the runner's cell observers
// and, when requested, the HTTP endpoint. The caller only constructs a
// sink when some telemetry flag is set; otherwise the runner's observer
// slot stays nil — the zero-cost path.
func newTelemetrySink(runner *experiments.Runner, spec experiments.Spec,
	planned int, mode progressMode, listen string, store *cellstore.Store) (*telemetrySink, error) {
	sink := &telemetrySink{camp: telemetry.NewCampaign(planned, spec.CPIStack, scrapeGauges(runner, store))}
	sink.printer = newProgressPrinter(mode, os.Stderr, planned, sink.camp)
	runner.SetCellObserver(func(ev experiments.CellEvent) {
		s := cellSample(ev)
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
		srv, err := telemetry.Serve(listen, sink.camp)
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		sink.srv = srv
		fmt.Fprintf(os.Stderr, "telemetry: listening on %s\n", srv.Addr())
		if testListenHook != nil {
			testListenHook(srv.Addr())
		}
	}
	return sink, nil
}

// scrapeGauges lists the /metrics series read at scrape time from outside
// the campaign record: the cell store's health and the trace-arena
// registry's state, each present when the run has one.
func scrapeGauges(runner *experiments.Runner, store *cellstore.Store) []telemetry.Gauge {
	var gauges []telemetry.Gauge
	if store != nil {
		gauges = append(gauges,
			telemetry.Gauge{
				Name:  "portsim_store_quarantined_total",
				Help:  "Corrupt cell-store entries quarantined (moved to *.corrupt) this run.",
				Value: func() float64 { return float64(store.Stats().Quarantined) },
			},
			telemetry.Gauge{
				Name: "portsim_store_degraded",
				Help: "1 when the cell store has degraded to store-less operation, else 0.",
				Value: func() float64 {
					if store.Stats().Degraded {
						return 1
					}
					return 0
				},
			})
	}
	if _, ok := runner.ArenaStats(); ok {
		arena := func(name, help string, field func(experiments.ArenaStats) float64) telemetry.Gauge {
			return telemetry.Gauge{Name: name, Help: help, Value: func() float64 {
				st, _ := runner.ArenaStats()
				return field(st)
			}}
		}
		gauges = append(gauges,
			arena("portsim_arena_count", "Trace arenas resident in the shared registry.",
				func(st experiments.ArenaStats) float64 { return float64(st.Count) }),
			arena("portsim_arena_bytes", "Bytes held by resident trace arenas.",
				func(st experiments.ArenaStats) float64 { return float64(st.Bytes) }),
			arena("portsim_arena_hits_total", "Cell acquisitions served from an already-materialised trace arena.",
				func(st experiments.ArenaStats) float64 { return float64(st.Hits) }),
			arena("portsim_arena_fallbacks_total", "Traces built for one cell alone because the arena budget had no room or the kept arena was shorter.",
				func(st experiments.ArenaStats) float64 { return float64(st.Fallbacks) }),
			arena("portsim_arena_budget_bytes", "Configured trace-arena byte budget.",
				func(st experiments.ArenaStats) float64 { return float64(st.Budget) }))
	}
	return gauges
}

// cpiTable renders the CPI stacks of a campaign's sorted cells, one row
// per simulation — a memo hit re-delivers its owner's stack, while a store
// hit restores one from an earlier campaign and is kept — with one
// percentage column per bucket. A failed cell shows its partial stack.
// The title line starts with "CPI stacks" so byte-identity comparisons can
// strip the block with a single sed range.
func cpiTable(cells []telemetry.ManifestCell) *stats.Table {
	header := []string{"workload", "machine", "cycles"}
	for b := cpustack.Bucket(0); b < cpustack.NumBuckets; b++ {
		header = append(header, b.String())
	}
	tbl := stats.NewTable("CPI stacks: % of simulated cycles per attribution bucket", header...)
	for _, c := range cells {
		if c.MemoHit || c.CPIStack == nil {
			continue
		}
		var total uint64
		for _, v := range c.CPIStack {
			total += v
		}
		machine := c.Machine
		if c.Outcome == telemetry.OutcomeFailed {
			machine += " (failed)"
		}
		row := []string{c.Workload, machine, strconv.FormatUint(total, 10)}
		for b := cpustack.Bucket(0); b < cpustack.NumBuckets; b++ {
			if total == 0 {
				row = append(row, "-")
				continue
			}
			row = append(row, stats.Percent(float64(c.CPIStack[b.String()])/float64(total)))
		}
		tbl.AddRow(row...)
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

// writeTrace replays the traced cell's bundle into a depth-event recorder
// (defaultTraceDepth when not positive) and writes the recorder's tail as
// a Chrome trace-event JSON file for Perfetto / chrome://tracing. A
// failing cell is traced too: the campaign has already reported its
// failure, and the trace is the diagnosis.
func writeTrace(out io.Writer, b *experiments.Bundle, depth int, cpiStack bool, path string) error {
	if depth <= 0 {
		depth = defaultTraceDepth
	}
	rec := diag.NewRecorder(depth)
	_, _ = b.Replay(rec, cpiStack)
	events := rec.Events()
	trace, err := telemetry.BuildTrace(events, telemetry.TraceMeta{
		Machine:  b.Machine.Name,
		Workload: b.Workload,
		Seed:     b.Seed,
		Lanes:    core.SlotsPerCycle(b.Machine.Ports),
		Dropped:  rec.Dropped(),
		Total:    rec.Total(),
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
		path, len(events), rec.Dropped())
	return nil
}
