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

// Campaign accumulates a run's telemetry: the live registry metrics served
// by -listen and the per-cell rows a manifest is built from. It is safe
// for concurrent use by the runner's worker pool.
type Campaign struct {
	start        time.Time
	startMallocs uint64

	cellsPlanned *Gauge
	cellsDone    *Counter
	cellsFailed  *Counter
	memoHits     *Counter
	storeHits    *Counter
	simCycles    *Counter
	simInsts     *Counter
	wallHist     *Histogram
	utilHist     *Histogram
	rejectHist   *Histogram

	planned int

	// cpiCounters holds one registry counter per accounting bucket once
	// EnableCPIStack runs; nil while CPI accounting is off.
	cpiCounters []*Counter

	mu      sync.Mutex
	cells   []ManifestCell
	running map[string]runningCell
}

// mallocCount reads the runtime's cumulative allocation counter.
func mallocCount() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// NewCampaign registers the campaign metric set on reg and returns the
// accumulator. planned is the number of cells the selected experiments
// will submit (0 when unknown).
func NewCampaign(reg *Registry, planned int) *Campaign {
	c := &Campaign{
		start:        time.Now(),
		startMallocs: mallocCount(),
		planned:      planned,
		running:      make(map[string]runningCell),

		cellsPlanned: reg.Gauge("portsim_cells_planned",
			"Experiment cells the selected suite will submit."),
		cellsDone: reg.Counter("portsim_cells_done_total",
			"Experiment cells completed (simulated, memoised or failed)."),
		cellsFailed: reg.Counter("portsim_cells_failed_total",
			"Experiment cells that failed (panic, deadline, watchdog stall)."),
		memoHits: reg.Counter("portsim_cells_memo_hits_total",
			"Experiment cells satisfied from the runner's memo cache."),
		storeHits: reg.Counter("portsim_cells_store_hits_total",
			"Experiment cells restored from the durable cell store."),
		simCycles: reg.Counter("portsim_sim_cycles_total",
			"Simulated cycles across non-memoised cells."),
		simInsts: reg.Counter("portsim_sim_insts_total",
			"Committed instructions across non-memoised cells."),
		wallHist: reg.Histogram("portsim_cell_wall_seconds",
			"Wall-clock time per simulated (non-memoised) cell.",
			[]float64{0.01, 0.03, 0.1, 0.3, 1, 3, 10, 30, 120}),
		utilHist: reg.Histogram("portsim_port_utilization",
			"Mean fraction of cache-port slots granted per cycle, one sample per cell.",
			[]float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1}),
		rejectHist: reg.Histogram("portsim_port_reject_rate",
			"Fraction of cache-port offers refused, one sample per cell.",
			[]float64{0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 1}),
	}
	c.cellsPlanned.Set(float64(planned))
	reg.GaugeFunc("portsim_sim_cycles_per_second",
		"Simulated cycles per wall second since campaign start.",
		func() float64 {
			secs := time.Since(c.start).Seconds()
			if secs <= 0 {
				return 0
			}
			return float64(c.simCycles.Value()) / secs
		})
	reg.GaugeFunc("portsim_allocs_per_1k_cycles",
		"Heap allocations per thousand simulated cycles since campaign start.",
		func() float64 {
			cycles := c.simCycles.Value()
			if cycles == 0 {
				return 0
			}
			allocs := mallocCount() - c.startMallocs //portlint:ignore cyclemath runtime.MemStats.Mallocs is monotonic and startMallocs sampled the earlier value
			return float64(allocs) / (float64(cycles) / 1000)
		})
	return c
}

// EnableCPIStack registers one cycle counter per accounting bucket
// (portsim_cpi_<bucket>_cycles_total) and arms the campaign to fold each
// simulated cell's breakdown into them. The registry has no label support,
// so the bucket is part of the metric name.
func (c *Campaign) EnableCPIStack(reg *Registry) {
	c.cpiCounters = make([]*Counter, cpustack.NumBuckets)
	for b := cpustack.Bucket(0); b < cpustack.NumBuckets; b++ {
		c.cpiCounters[b] = reg.Counter(
			"portsim_cpi_"+b.MetricName()+"_cycles_total",
			"Simulated cycles attributed to "+b.String()+" across non-memoised cells.")
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

// CellDone folds one completed cell into the metrics and the manifest
// rows.
func (c *Campaign) CellDone(s CellSample) {
	c.cellsDone.Inc()
	if s.Failed {
		c.cellsFailed.Inc()
	}
	if s.MemoHit {
		c.memoHits.Inc()
	} else if s.StoreHit {
		c.storeHits.Inc()
	} else if !s.Failed {
		c.simCycles.Add(s.Cycles)
		c.simInsts.Add(s.Insts)
		c.wallHist.Observe(s.WallSeconds)
		if s.PortUtilization >= 0 {
			c.utilHist.Observe(s.PortUtilization)
		}
		if s.PortRejectRate >= 0 {
			c.rejectHist.Observe(s.PortRejectRate)
		}
	}
	if c.cpiCounters != nil && s.CPIStack != nil && !s.MemoHit && !s.StoreHit {
		for b := cpustack.Bucket(0); b < cpustack.NumBuckets; b++ {
			c.cpiCounters[b].Add(s.CPIStack.Get(b))
		}
	}

	cell := ManifestCell{
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
	}
	if s.Failed {
		cell.Outcome = OutcomeFailed
		cell.Error = s.Error
		if cell.Error == "" {
			cell.Error = "unknown failure"
		}
	}
	c.mu.Lock()
	delete(c.running, cellKey(cell.Machine, cell.Workload, cell.ConfigHash))
	c.cells = append(c.cells, cell)
	c.mu.Unlock()
}

// Done returns the number of cells completed so far.
func (c *Campaign) Done() int { return int(c.cellsDone.Value()) }

// MemoHits returns how many completed cells were satisfied from the
// result memo instead of being simulated. Throughput and ETA estimates
// must exclude them: a memo hit completes in microseconds, so folding it
// into a per-cell rate makes the remaining full-cost cells look nearly
// free.
func (c *Campaign) MemoHits() int { return int(c.memoHits.Value()) }

// StoreHits returns how many completed cells were restored from the durable
// cell store. Like memo hits, they are excluded from throughput and ETA
// estimates: a restore costs one file read, not a simulation.
func (c *Campaign) StoreHits() int { return int(c.storeHits.Value()) }

// SimCycles returns the simulated-cycle total so far.
func (c *Campaign) SimCycles() uint64 { return c.simCycles.Value() }

// Elapsed returns the wall time since the campaign started.
func (c *Campaign) Elapsed() time.Duration { return time.Since(c.start) }

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
// completed cells reuse the manifest rows.
func (c *Campaign) Status() *CampaignStatus {
	now := time.Now()
	st := &CampaignStatus{
		Schema:         CampaignStatusSchema,
		ElapsedSeconds: now.Sub(c.start).Seconds(),
		Planned:        c.planned,
		Done:           int(c.cellsDone.Value()),
		Failed:         int(c.cellsFailed.Value()),
		MemoHits:       int(c.memoHits.Value()),
		StoreHits:      int(c.storeHits.Value()),
		SimCycles:      c.simCycles.Value(),
	}
	if st.ElapsedSeconds > 0 {
		st.MCyclesPerSecond = float64(st.SimCycles) / st.ElapsedSeconds / 1e6
	}
	c.mu.Lock()
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
	st.Cells = make([]CellStatus, 0, len(c.cells))
	for _, cell := range c.cells {
		cs := CellStatus{
			Workload:    cell.Workload,
			Machine:     cell.Machine,
			ConfigHash:  cell.ConfigHash,
			State:       cell.Outcome,
			WallSeconds: cell.WallSeconds,
			Cycles:      cell.Cycles,
			Error:       cell.Error,
			CPIStack:    cell.CPIStack,
		}
		switch {
		case cell.MemoHit:
			cs.State = "memo-hit"
		case cell.StoreHit:
			cs.State = "store-hit"
		}
		st.Cells = append(st.Cells, cs)
	}
	c.mu.Unlock()
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
// accumulator cannot know itself.
type ManifestInfo struct {
	CreatedAt   time.Time
	Command     []string
	Seed        int64
	Insts       uint64
	Workloads   []string
	Parallel    int
	Experiments []string
	BenchJSON   string
	TraceOut    string
	Bundles     []string
	WallSeconds float64
	// Store is the durable-store summary, nil when the campaign ran
	// without one.
	Store *ManifestStore
	// Arenas is the trace-arena summary, nil when arenas were disabled.
	Arenas *ManifestArenas
}

// BuildManifest assembles the manifest from the accumulated cells. Cells
// are sorted by (workload, machine, config hash, memo-hit), so the
// document is deterministic regardless of worker-pool completion order.
func (c *Campaign) BuildManifest(info ManifestInfo) *Manifest {
	c.mu.Lock()
	cells := make([]ManifestCell, len(c.cells))
	copy(cells, c.cells)
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

	var totals ManifestTotals
	totals.WallSeconds = info.WallSeconds
	var cpi map[string]uint64
	distinct := make(map[string]bool)
	for _, cell := range cells {
		totals.Cells++
		distinct[cell.ConfigHash] = true
		if cell.Outcome == OutcomeFailed {
			totals.Failed++
		}
		switch {
		case cell.MemoHit:
			totals.MemoHits++
		case cell.StoreHit:
			totals.StoreHits++
		case cell.Outcome == OutcomeOK:
			totals.SimCycles += cell.Cycles
			totals.SimInsts += cell.Insts
			for name, v := range cell.CPIStack {
				if cpi == nil {
					cpi = make(map[string]uint64)
				}
				cpi[name] += v
			}
		}
	}

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
		BenchJSON:   info.BenchJSON,
		TraceOut:    info.TraceOut,
		Bundles:     info.Bundles,
		Store:       info.Store,
		Arenas:      info.Arenas,
		Cells:       cells,
		Totals:      totals,
		CPIStack:    cpi,
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
