// Package telemetry is the observability layer over a portsim campaign:
// one record of the campaign's cells (Campaign), rendered as Prometheus
// text on /metrics, as the live /campaign status document, as the run
// manifest tying every table to its exact inputs, and as the totals
// portbench's progress line and CPI table read; the HTTP server that
// publishes it; and a Chrome trace-event exporter for flight-recorder
// tails (Perfetto / chrome://tracing).
//
// The layering contract, enforced by portlint's layerimports analyzer: the
// simulator packages (internal/cpu, internal/core, internal/mem) never
// import this package — telemetry is fed exclusively from end-of-cell
// stats.Set snapshots and the experiment runner's per-cell observer
// callback, both outside the hot cycle loop. A campaign with telemetry
// disabled carries a nil sink everywhere and pays nothing; tables are
// byte-identical either way.
package telemetry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"runtime"
	"sort"
	"sync"
	"time"

	"portsim/internal/cpustack"
)

// CellSample is the end-of-cell snapshot the experiment runner's observer
// delivers: cell identity, outcome and the port-level rates derived from
// the cell's final stats.Set. Nothing here is sampled mid-simulation — the
// hot loop stays untouched whether telemetry is on or off.
type CellSample struct {
	Machine    string
	Workload   string
	ConfigJSON []byte
	// Key is the cell's content address (see ManifestCell.CellKey).
	Key string

	MemoHit bool
	// StoreHit marks a cell restored from the durable cell store. Like a
	// memo hit it was not simulated in this run: its cycles, instructions
	// and (zero) wall time stay out of the simulation-rate metrics.
	StoreHit bool
	Failed   bool
	Error    string

	WallSeconds float64
	Cycles      uint64
	Insts       uint64

	// PortUtilization is the mean fraction of port slots granted per
	// cycle, PortRejectRate the fraction of port offers refused; negative
	// values mean "unknown" (failed cell) and are not observed.
	PortUtilization float64
	PortRejectRate  float64

	// CPIStack is the cell's frozen cycle-accounting breakdown, nil when
	// the campaign ran without -cpistack.
	CPIStack *cpustack.Snapshot
}

// CellStartSample announces a cell entering simulation: its identity plus
// the live accounting stack the simulator is charging (nil without
// -cpistack). The campaign tracks it until the matching CellDone, so
// /campaign can report running cells with a live CPI snapshot.
type CellStartSample struct {
	Machine    string
	Workload   string
	ConfigJSON []byte
	Experiment string
	Stack      *cpustack.Stack
}

// runningCell is the campaign's record of an in-flight simulation.
type runningCell struct {
	machine    string
	workload   string
	configHash string
	experiment string
	started    time.Time
	stack      *cpustack.Stack
}

// cellRow is one completed cell of the record: its manifest row plus the
// port rates the /metrics histograms bucket (negative when unknown).
type cellRow struct {
	ManifestCell
	portUtilization, portRejectRate float64
}

// Campaign is the record of a run: the completed cells' rows and the set
// of running cells, under one mutex. Every surface renders from it —
// Metrics for /metrics, Status for /campaign, BuildManifest for the
// manifest, Totals for the progress line, Cells for the CPI table — and
// adds the rows up with one fold (tally), so the surfaces agree by
// construction. It is safe for concurrent use by the runner's worker pool
// and the HTTP scrape goroutine.
type Campaign struct {
	start        time.Time
	startMallocs uint64
	planned      int
	cpiStack     bool
	gauges       []Gauge

	mu      sync.Mutex
	rows    []cellRow
	running map[string]runningCell
}

// mallocCount reads the runtime's cumulative allocation counter.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// NewCampaign returns an empty record. planned is the number of cells the
// selected experiments will submit (0 when unknown); cpiStack adds one
// /metrics cycle counter per CPI bucket; gauges follow the campaign's own
// series on /metrics, read at scrape time.
func NewCampaign(planned int, cpiStack bool, gauges []Gauge) *Campaign {
	return &Campaign{
		start:        time.Now(),
		startMallocs: mallocCount(),
		planned:      planned,
		cpiStack:     cpiStack,
		gauges:       gauges,
		running:      make(map[string]runningCell),
	}
}

// cellKey identifies one in-flight cell for the running set.
func cellKey(machine, workload, configHash string) string {
	return machine + "\x00" + workload + "\x00" + configHash
}

// CellStarted records a cell entering simulation. The matching CellDone
// removes it; memo and store hits never start, so they never appear here.
func (c *Campaign) CellStarted(s CellStartSample) {
	rc := runningCell{
		machine:    s.Machine,
		workload:   s.Workload,
		configHash: HashConfig(s.ConfigJSON),
		experiment: s.Experiment,
		started:    time.Now(),
		stack:      s.Stack,
	}
	c.mu.Lock()
	c.running[cellKey(rc.machine, rc.workload, rc.configHash)] = rc
	c.mu.Unlock()
}

// CellDone moves one cell from the running set to the completed rows.
func (c *Campaign) CellDone(s CellSample) {
	row := cellRow{
		ManifestCell: ManifestCell{
			Workload:    s.Workload,
			Machine:     s.Machine,
			ConfigHash:  HashConfig(s.ConfigJSON),
			CellKey:     s.Key,
			Outcome:     OutcomeOK,
			MemoHit:     s.MemoHit,
			StoreHit:    s.StoreHit,
			WallSeconds: s.WallSeconds,
			Cycles:      s.Cycles,
			Insts:       s.Insts,
			CPIStack:    s.CPIStack.Map(),
		},
		portUtilization: s.PortUtilization,
		portRejectRate:  s.PortRejectRate,
	}
	if s.Failed {
		row.Outcome = OutcomeFailed
		row.Error = s.Error
		if row.Error == "" {
			row.Error = "unknown failure"
		}
	}
	c.mu.Lock()
	delete(c.running, cellKey(row.Machine, row.Workload, row.ConfigHash))
	c.rows = append(c.rows, row)
	c.mu.Unlock()
}

// tallyLocked folds the completed rows; c.mu must be held.
func (c *Campaign) tallyLocked() tally {
	var t tally
	for i := range c.rows {
		t.add(&c.rows[i].ManifestCell)
	}
	return t
}

// Totals folds the cells completed so far into the manifest's totals.
// WallSeconds, which a manifest takes from its caller, stays zero.
func (c *Campaign) Totals() ManifestTotals {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tallyLocked().ManifestTotals
}

// Cells returns the completed cells' rows sorted by (workload, machine,
// config hash, memo-hit), so the order is deterministic regardless of
// worker-pool completion order and each simulated cell precedes its memo
// hits.
func (c *Campaign) Cells() []ManifestCell {
	c.mu.Lock()
	cells := make([]ManifestCell, len(c.rows))
	for i := range c.rows {
		cells[i] = c.rows[i].ManifestCell
	}
	c.mu.Unlock()
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		if a.ConfigHash != b.ConfigHash {
			return a.ConfigHash < b.ConfigHash
		}
		return !a.MemoHit && b.MemoHit
	})
	return cells
}

// CampaignStatusSchema identifies the /campaign JSON document format.
const CampaignStatusSchema = "portsim-campaign/v1"

// RunningStatus is one in-flight cell in a CampaignStatus: identity plus a
// live read of the accounting stack the simulator is charging right now.
type RunningStatus struct {
	Workload    string  `json:"workload"`
	Machine     string  `json:"machine"`
	ConfigHash  string  `json:"config_hash"`
	Experiment  string  `json:"experiment,omitempty"`
	WallSeconds float64 `json:"wall_seconds"`
	// Cycles is the live bucket total — the cell's simulated-cycle count
	// at the instant of the snapshot (accounting charges exactly one
	// bucket per cycle). Zero without -cpistack.
	Cycles   uint64            `json:"cycles"`
	CPIStack map[string]uint64 `json:"cpi_stack,omitempty"`
}

// CellStatus is one completed cell in a CampaignStatus.
type CellStatus struct {
	Workload   string `json:"workload"`
	Machine    string `json:"machine"`
	ConfigHash string `json:"config_hash"`
	// State is "ok", "failed", "memo-hit" or "store-hit".
	State       string            `json:"state"`
	WallSeconds float64           `json:"wall_seconds"`
	Cycles      uint64            `json:"cycles"`
	Error       string            `json:"error,omitempty"`
	CPIStack    map[string]uint64 `json:"cpi_stack,omitempty"`
}

// CampaignStatus is the /campaign JSON document: campaign-level progress
// plus per-cell state for in-flight and completed cells.
type CampaignStatus struct {
	Schema         string  `json:"schema"`
	ElapsedSeconds float64 `json:"elapsed_seconds"`
	Planned        int     `json:"planned"`
	Done           int     `json:"done"`
	Failed         int     `json:"failed"`
	MemoHits       int     `json:"memo_hits"`
	StoreHits      int     `json:"store_hits"`
	// Pending counts planned cells not yet started (0 when the plan size
	// was unknown).
	Pending   int    `json:"pending"`
	SimCycles uint64 `json:"sim_cycles"`
	// MCyclesPerSecond is the campaign-wide simulation rate in millions
	// of cycles per wall second.
	MCyclesPerSecond float64         `json:"mcycles_per_second"`
	Running          []RunningStatus `json:"running"`
	Cells            []CellStatus    `json:"cells"`
}

// Status snapshots the campaign for /campaign. Running cells read their
// live stacks (atomics — no coordination with the simulating workers);
// completed cells are listed in completion order.
func (c *Campaign) Status() *CampaignStatus {
	now := time.Now()
	st := &CampaignStatus{
		Schema:         CampaignStatusSchema,
		ElapsedSeconds: now.Sub(c.start).Seconds(),
		Planned:        c.planned,
	}
	c.mu.Lock()
	t := c.tallyLocked()
	st.Running = make([]RunningStatus, 0, len(c.running))
	for _, rc := range c.running {
		r := RunningStatus{
			Workload:    rc.workload,
			Machine:     rc.machine,
			ConfigHash:  rc.configHash,
			Experiment:  rc.experiment,
			WallSeconds: now.Sub(rc.started).Seconds(),
		}
		if rc.stack != nil {
			snap := rc.stack.Snapshot()
			r.Cycles = snap.Total()
			r.CPIStack = snap.Map()
		}
		st.Running = append(st.Running, r)
	}
	st.Cells = make([]CellStatus, 0, len(c.rows))
	for _, row := range c.rows {
		cs := CellStatus{
			Workload:    row.Workload,
			Machine:     row.Machine,
			ConfigHash:  row.ConfigHash,
			State:       row.Outcome,
			WallSeconds: row.WallSeconds,
			Cycles:      row.Cycles,
			Error:       row.Error,
			CPIStack:    row.CPIStack,
		}
		switch {
		case row.MemoHit:
			cs.State = "memo-hit"
		case row.StoreHit:
			cs.State = "store-hit"
		}
		st.Cells = append(st.Cells, cs)
	}
	c.mu.Unlock()
	st.Done, st.Failed, st.MemoHits, st.StoreHits = t.Cells, t.Failed, t.MemoHits, t.StoreHits
	st.SimCycles = t.SimCycles
	if st.ElapsedSeconds > 0 {
		st.MCyclesPerSecond = float64(st.SimCycles) / st.ElapsedSeconds / 1e6
	}
	if c.planned > 0 {
		if pending := c.planned - st.Done - len(st.Running); pending > 0 {
			st.Pending = pending
		}
	}
	sort.Slice(st.Running, func(i, j int) bool {
		a, b := st.Running[i], st.Running[j]
		if a.Workload != b.Workload {
			return a.Workload < b.Workload
		}
		if a.Machine != b.Machine {
			return a.Machine < b.Machine
		}
		return a.ConfigHash < b.ConfigHash
	})
	return st
}

// ManifestInfo carries the campaign-level fields of a manifest that the
// record cannot know itself.
type ManifestInfo struct {
	CreatedAt   time.Time
	Command     []string
	Seed        int64
	Insts       uint64
	Workloads   []string
	Parallel    int
	Experiments []string
	TraceOut    string
	Bundles     []string
	WallSeconds float64
	// Store is the durable-store summary, nil when the campaign ran
	// without one.
	Store *ManifestStore
	// Arenas is the trace-arena summary, nil when no arena was shared.
	Arenas *ManifestArenas
}

// BuildManifest assembles the manifest from the sorted cells (Cells), so
// the document is deterministic regardless of completion order.
func (c *Campaign) BuildManifest(info ManifestInfo) *Manifest {
	cells := c.Cells()
	var t tally
	distinct := make(map[string]bool)
	for i := range cells {
		t.add(&cells[i])
		distinct[cells[i].ConfigHash] = true
	}
	t.WallSeconds = info.WallSeconds
	return &Manifest{
		Schema:      ManifestSchema,
		CreatedAt:   info.CreatedAt.Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		Command:     info.Command,
		Seed:        info.Seed,
		Insts:       info.Insts,
		Workloads:   info.Workloads,
		Parallel:    info.Parallel,
		Experiments: info.Experiments,
		ConfigHash:  campaignHash(info, distinct),
		TraceOut:    info.TraceOut,
		Bundles:     info.Bundles,
		Store:       info.Store,
		Arenas:      info.Arenas,
		Cells:       cells,
		Totals:      t.ManifestTotals,
		CPIStack:    t.cpi,
	}
}

// campaignHash fingerprints the campaign inputs: seed, budget, workload
// list and the sorted set of distinct machine-configuration hashes.
func campaignHash(info ManifestInfo, distinct map[string]bool) string {
	hashes := make([]string, 0, len(distinct))
	for h := range distinct {
		hashes = append(hashes, h)
	}
	sort.Strings(hashes)
	payload, _ := json.Marshal(struct {
		Seed      int64    `json:"seed"`
		Insts     uint64   `json:"insts"`
		Workloads []string `json:"workloads"`
		Configs   []string `json:"configs"`
	}{info.Seed, info.Insts, info.Workloads, hashes})
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:6])
}
