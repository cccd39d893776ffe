package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"portsim"
	"portsim/internal/cellstore"
	"portsim/internal/cpu"
	"portsim/internal/cpustack"
	"portsim/internal/experiments"
	"portsim/internal/stats"
	"portsim/internal/workload"
)

// childArg, as the first argument, makes the binary run one repeat of one
// workload and print its sample as JSON. The parent re-executes itself
// this way so that arenas, pools, GC state and peak RSS start fresh on
// every repeat.
const childArg = "-child"

// workers is the number of simulations in flight: two, the core count of
// the host the baseline was taken on, and never more than this host has.
func workers() int { return min(2, runtime.NumCPU()) }

// facadeInsts is facade-serial's instruction budget per simulation: 7/3 of
// the campaign budget, so the default full scale (300k) runs 700k.
func facadeInsts(insts uint64) uint64 { return insts * 7 / 3 }

// tightBudget is campaign-tight's arena budget: 24 MiB at the full 300k
// scale, scaled with the instruction budget so that, at any scale, two of
// the campaign's eighteen traces fit and the rest are rebuilt or streamed.
func tightBudget(insts uint64) int64 { return int64(24<<20) * int64(insts) / 300_000 }

// The A6 multiprogramming sweep's deepest level and mean quantum, which the
// multiprogram probe replays.
const (
	a6Processes = 8
	a6Quantum   = 5000
)

// sample is one repeat's measurement, passed from child to parent as JSON.
type sample struct {
	Seed   int64 `json:"seed"`
	Traced bool  `json:"traced"`
	// Digest fingerprints the repeat's output: the rendered tables of a
	// campaign, or every facade simulation's cycles, instructions and
	// counters.
	Digest string `json:"digest"`
	// Cells counts the cells (campaigns) or simulations (facade) attempted
	// and Failed those that failed.
	Cells  int `json:"cells"`
	Failed int `json:"failed"`
	// Problems lists violated output invariants; any makes the run
	// incorrect.
	Problems []string           `json:"problems,omitempty"`
	Metrics  map[string]float64 `json:"metrics"`
	Spans    []span             `json:"spans,omitempty"`
}

// env is one child's configuration.
type env struct {
	workload string
	seed     int64
	insts    uint64
	profiles []string
	traced   bool
	workDir  string
	rec      *spanRecorder
	// spawned is when the parent started this process: set-up time runs
	// from there, so process start-up and package initialisation count
	// as set-up too.
	spawned time.Time
}

// childMain runs one repeat and writes its sample to stdout.
func childMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("child", flag.ContinueOnError)
	fs.SetOutput(stderr)
	e := &env{}
	fs.StringVar(&e.workload, "workload", "", "workload name")
	fs.Int64Var(&e.seed, "seed", 42, "workload seed")
	fs.Uint64Var(&e.insts, "insts", defaultInsts, "instructions per campaign simulation")
	profiles := fs.Int("profiles", len(workload.Names()), "number of profiles")
	fs.BoolVar(&e.traced, "traced", false, "record spans and per-layer metrics")
	fs.StringVar(&e.workDir, "work-dir", ".", "directory for cell stores")
	spawned := fs.Int64("spawned", 0, "parent's start time for this process, Unix nanoseconds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	e.spawned = time.Unix(0, *spawned)
	e.profiles = workload.Names()[:*profiles]
	if e.traced {
		e.rec = newSpanRecorder(time.Now())
	}
	var s *sample
	var err error
	if e.workload == facadeSerial {
		s, err = e.facade()
	} else {
		s, err = e.campaign()
	}
	if err != nil {
		fmt.Fprintf(stderr, "portsim-bench: %s seed %d: %v\n", e.workload, e.seed, err)
		return 1
	}
	s.Spans = e.rec.snapshot()
	if err := json.NewEncoder(stdout).Encode(s); err != nil {
		fmt.Fprintln(stderr, "portsim-bench:", err)
		return 1
	}
	return 0
}

func (e *env) newSample() *sample {
	s := &sample{Seed: e.seed, Traced: e.traced, Metrics: map[string]float64{}}
	if e.traced {
		// Every per-layer metric is emitted; those a workload never
		// exercises (the store outside campaign-resume, say) stay zero.
		for _, m := range perLayer {
			s.Metrics[m.Name] = 0
		}
	}
	return s
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// experiment is one table of the suite.
type experiment struct {
	id  string
	run func(*experiments.Runner) (*stats.Table, error)
}

// suite returns the 19 experiments in cmd/portbench's order (suiteIDs).
// F6's rows are kept in *f6 for the paper-gap report.
func suite(f6 *[]experiments.F6Row) []experiment {
	return []experiment{
		{"T1", func(*experiments.Runner) (*stats.Table, error) { return experiments.T1Baseline(), nil }},
		{"T2", tableOf(experiments.T2Characterisation)},
		{"F1", tableOf(experiments.F1PortCount)},
		{"F2", tableOf(experiments.F2BufferDepth)},
		{"F3", tableOf(experiments.F3PortWidth)},
		{"F4", tableOf(experiments.F4LineBuffers)},
		{"F5", tableOf(experiments.F5StoreCombining)},
		{"F6", func(r *experiments.Runner) (*stats.Table, error) {
			rows, t, err := experiments.F6Headline(r)
			*f6 = rows
			return t, err
		}},
		{"T3", tableOf(experiments.T3PortUtilisation)},
		{"T4", tableOf(experiments.T4GrantDistribution)},
		{"F7", tableOf(experiments.F7KernelIntensity)},
		{"A1", tableOf(experiments.A1Ablation)},
		{"A2", tableOf(experiments.A2Banking)},
		{"A3", tableOf(experiments.A3Prefetch)},
		{"A4", tableOf(experiments.A4MemSpeculation)},
		{"A5", tableOf(experiments.A5WritePolicy)},
		{"A6", tableOf(experiments.A6Multiprogramming)},
		{"A7", tableOf(experiments.A7ArbitrationPolicy)},
		{"A8", tableOf(experiments.A8WrongPathFetch)},
	}
}

// tableOf adapts an experiment function to the suite, dropping its rows.
func tableOf[R any](fn func(*experiments.Runner) (R, *stats.Table, error)) func(*experiments.Runner) (*stats.Table, error) {
	return func(r *experiments.Runner) (*stats.Table, error) {
		_, t, err := fn(r)
		return t, err
	}
}

// phase is one runner lifetime of a campaign: its set-up, the experiments
// it ran and what they cost.
type phase struct {
	runner   *experiments.Runner
	store    *cellstore.Store
	openTime time.Duration
	setup    time.Duration // store open and runner construction
	start    time.Time     // of the work phase
	wall     time.Duration
	mallocs  uint64
	tables   []string
	expSecs  map[string]float64
	render   time.Duration
	done     int // cells completed, from SetProgress
	failed   int
	f6       []experiments.F6Row
}

// runPhase builds a runner (over a store in storeDir, when set) and runs
// the first n experiments of the suite, rendering each table. The work
// phase runs from the first experiment call to the last table rendered.
func (e *env) runPhase(spec experiments.Spec, n int, storeDir string, cells *cellCollector) (*phase, error) {
	p := &phase{expSecs: map[string]float64{}}
	t0 := time.Now()
	if storeDir != "" {
		st, err := cellstore.Open(storeDir, cellstore.Options{})
		if err != nil {
			return nil, err
		}
		p.store, spec.Store = st, st
		p.openTime = time.Since(t0)
	}
	p.runner = experiments.NewRunner(spec)
	p.setup = time.Since(t0)
	e.rec.add(0, 0, "setup", "bench", t0, t0.Add(p.setup))
	var done atomic.Int64
	p.runner.SetProgress(func(n int) { done.Store(int64(n)) })
	if cells != nil {
		p.runner.SetCellObserver(cells.observe, time.Now)
	}
	workID := e.rec.newID()
	m0 := mallocs()
	p.start = time.Now()
	for _, x := range suite(&p.f6)[:n] {
		p.runner.SetExperiment(x.id)
		expID := e.rec.newID()
		cells.setParent(expID)
		start := time.Now()
		table, err := x.run(p.runner)
		ran := time.Now()
		if err != nil {
			p.failed += max(1, len(experiments.CellErrors(err)))
			p.tables = append(p.tables, x.id+": FAILED\n")
			continue
		}
		p.tables = append(p.tables, table.String()+"\n")
		end := time.Now()
		p.expSecs[x.id] += ran.Sub(start).Seconds()
		p.render += end.Sub(ran)
		e.rec.add(expID, workID, x.id, "experiments", start, ran)
		e.rec.add(0, expID, "render "+x.id, "stats", ran, end)
	}
	p.wall = time.Since(p.start)
	p.mallocs = mallocs() - m0
	e.rec.add(workID, 0, "work", "bench", p.start, p.start.Add(p.wall))
	p.done = int(done.Load())
	return p, nil
}

// campaign runs one of the three campaign workloads.
func (e *env) campaign() (*sample, error) {
	spec := experiments.Spec{
		Workloads: e.profiles,
		Insts:     e.insts,
		Seed:      e.seed,
		Parallel:  workers(),
		CPIStack:  e.traced,
	}
	var cells *cellCollector
	if e.traced {
		cells = &cellCollector{rec: e.rec, insts: e.insts}
	}
	s := e.newSample()
	var phases []*phase
	storeDir := ""
	switch e.workload {
	case campaignCold, campaignTight:
		if e.workload == campaignTight {
			spec.ArenaBudget = tightBudget(e.insts)
		}
		p, err := e.runPhase(spec, len(suiteIDs), "", cells)
		if err != nil {
			return nil, err
		}
		phases = []*phase{p}
	case campaignResume:
		// An interrupted durable campaign: T1…F6 run cold into a fresh
		// store, then a second runner lifetime reruns the whole suite
		// against it.
		storeDir = filepath.Join(e.workDir, fmt.Sprintf("store-%d", os.Getpid()))
		if err := os.RemoveAll(storeDir); err != nil {
			return nil, err
		}
		defer os.RemoveAll(storeDir)
		first, err := e.runPhase(spec, slices.Index(suiteIDs, "F6")+1, storeDir, cells)
		if err != nil {
			return nil, err
		}
		second, err := e.runPhase(spec, len(suiteIDs), storeDir, cells)
		if err != nil {
			return nil, err
		}
		phases = []*phase{first, second}
		// Restored cells must render exactly what simulated ones did.
		if !slices.Equal(first.tables, second.tables[:len(first.tables)]) {
			s.Problems = append(s.Problems, "tables restored from the store differ from the simulated ones")
		}
		if puts, hits := first.store.Stats().Puts, second.store.Stats().Hits; first.failed == 0 && hits != puts {
			s.Problems = append(s.Problems, fmt.Sprintf("second phase restored %d cells, first stored %d", hits, puts))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", e.workload)
	}

	// Set-up runs from process start to the first work phase, plus the
	// later runner lifetimes' own set-up.
	setup := phases[0].start.Sub(e.spawned)
	var wall time.Duration
	var insts, cycles, allocs uint64
	done, failed := 0, 0
	for i, p := range phases {
		if i > 0 {
			setup += p.setup
		}
		wall += p.wall
		insts += p.runner.SimulatedInstructions()
		cycles += p.runner.SimulatedCycles()
		allocs += p.mallocs
		done += p.done
		failed += p.failed
	}
	last := phases[len(phases)-1]
	s.Digest = digest(last.tables)
	s.Cells, s.Failed = done+failed, failed
	if insts == 0 || insts%e.insts != 0 {
		s.Problems = append(s.Problems, fmt.Sprintf("%d instructions simulated, not a whole number of %d-instruction cells", insts, e.insts))
	}
	m := s.Metrics
	m["wall_s"] = wall.Seconds()
	m["setup_s"] = setup.Seconds()
	m["sim_minsts_per_s"] = float64(insts) / wall.Seconds() / 1e6
	m["allocs_per_1k_cycles"] = safeDiv(float64(allocs), float64(cycles)/1000)
	m["failed_frac"] = failedFrac(failed, done)
	m["paper_gap_pp"] = paperGap(last.f6)
	if e.traced {
		if err := e.campaignLayers(s, phases, cells, wall, storeDir); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// facade runs facade-serial: every profile on the four preset machines,
// one portsim.New(...).Run at a time, each with a fresh core and live
// generation.
func (e *env) facade() (*sample, error) {
	n := facadeInsts(e.insts)
	dual, best := portsim.DualPortConfig(), portsim.BestSingleConfig()
	machines := []portsim.Config{portsim.BaselineConfig(), dual, portsim.QuadPortConfig(), best}
	s := e.newSample()
	h := sha256.New()
	var newTime, wall time.Duration
	var allocs, insts uint64
	var agg modelAgg
	var bestIPC, dualIPC []float64
	workID := e.rec.newID()
	w0 := time.Now()
	setup := w0.Sub(e.spawned)
	for _, w := range e.profiles {
		for _, m := range machines {
			t0 := time.Now()
			sim, err := portsim.New(m, w, e.seed)
			t1 := time.Now()
			if err != nil {
				return nil, err
			}
			m0 := mallocs()
			t2 := time.Now()
			res, err := sim.Run(n)
			t3 := time.Now()
			allocs += mallocs() - m0
			newTime += t1.Sub(t0)
			wall += t3.Sub(t2)
			e.rec.add(0, workID, "portsim.New "+w+"@"+m.Name, "portsim", t0, t1)
			e.rec.add(0, workID, "Run "+w+"@"+m.Name, "cpu", t2, t3)
			s.Cells++
			if err != nil {
				s.Failed++
				fmt.Fprintf(h, "%s %s FAILED\n", w, m.Name)
				continue
			}
			if res.Instructions != n {
				s.Problems = append(s.Problems, fmt.Sprintf("%s on %s committed %d of %d instructions", w, m.Name, res.Instructions, n))
			}
			insts += res.Instructions
			agg.add(res)
			fmt.Fprintf(h, "%s %s cycles=%d insts=%d", w, m.Name, res.Cycles, res.Instructions)
			for _, name := range res.Counters.Names() {
				fmt.Fprintf(h, " %s=%d", name, res.Counters.Get(name))
			}
			fmt.Fprintln(h)
			switch m.Name {
			case best.Name:
				bestIPC = append(bestIPC, res.IPC)
			case dual.Name:
				dualIPC = append(dualIPC, res.IPC)
			}
		}
	}
	e.rec.add(workID, 0, "work", "bench", w0, time.Now())
	s.Digest = hex.EncodeToString(h.Sum(nil))
	m := s.Metrics
	m["wall_s"] = wall.Seconds()
	// Set-up is process start-up plus every portsim.New call.
	m["setup_s"] = (setup + newTime).Seconds()
	m["sim_minsts_per_s"] = float64(insts) / wall.Seconds() / 1e6
	m["allocs_per_1k_cycles"] = safeDiv(float64(allocs), float64(agg.cycles)/1000)
	m["failed_frac"] = failedFrac(s.Failed, s.Cells-s.Failed)
	m["paper_gap_pp"] = gapPP(bestIPC, dualIPC)
	if e.traced {
		agg.fill(m, false)
		m["portsim.new_ms"] = newTime.Seconds() * 1e3 / float64(s.Cells)
		m["portsim.run_ns_per_inst"] = safeDiv(float64(wall.Nanoseconds()), float64(insts))
		if err := e.probeLayers(m, n, false); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// digest fingerprints rendered tables.
func digest(tables []string) string {
	sum := sha256.Sum256([]byte(strings.Join(tables, "")))
	return hex.EncodeToString(sum[:])
}

// failedFrac is failed cells over completed cells; all-failed reads 1.
func failedFrac(failed, done int) float64 {
	if done == 0 {
		return min(1, float64(failed))
	}
	return float64(failed) / float64(done)
}

// paperGap is the distance, in percentage points, between F6's geomean
// best-single/dual IPC ratio and the paper's 91%.
func paperGap(rows []experiments.F6Row) float64 {
	var best, dual []float64
	for _, r := range rows {
		best = append(best, r.BestIPC)
		dual = append(dual, r.DualIPC)
	}
	return gapPP(best, dual)
}

func gapPP(best, dual []float64) float64 {
	if len(best) == 0 || len(dual) == 0 {
		return 0
	}
	ratio := stats.GeoMean(best) / stats.GeoMean(dual)
	d := 100*ratio - 91.0
	if d < 0 {
		d = -d
	}
	return d
}

// modelAgg sums simulated results into the core, mem, bpred and cpustack
// per-layer metrics.
type modelAgg struct {
	cycles, grants, rejects, lbLoads, loads, sbInserts, sbDrains uint64
	l1dHits, l1dMisses, dram, dtlbHits, dtlbMisses               uint64
	branches, mispredicts                                        uint64
	stack                                                        [cpustack.NumBuckets]uint64
}

func (a *modelAgg) add(res *cpu.Result) {
	c := res.Counters
	a.cycles += res.Cycles
	a.grants += c.Get(stats.PortGrants)
	a.rejects += stats.PortRejects(c)
	a.lbLoads += c.Get(stats.PortLoadsFromLineBuffer)
	a.loads += res.Loads
	a.sbInserts += c.Get(stats.PortSBInserts)
	a.sbDrains += c.Get(stats.PortSBDrains)
	a.l1dHits += c.Get(stats.L1DHits)
	a.l1dMisses += c.Get(stats.L1DMisses)
	a.dram += c.Get(stats.DRAMAccesses)
	a.dtlbHits += c.Get(stats.DTLBHits)
	a.dtlbMisses += c.Get(stats.DTLBMisses)
	a.branches += res.Branches
	a.mispredicts += res.Mispredicts
	if res.CPIStack != nil {
		for b, v := range res.CPIStack.Buckets {
			a.stack[b] += v
		}
	}
}

// fill writes the aggregate's metrics; withStack adds the CPI-stack
// shares, which only runs with accounting armed have.
func (a *modelAgg) fill(m map[string]float64, withStack bool) {
	f := func(n uint64) float64 { return float64(n) }
	m["cpu.sim_cycles"] = f(a.cycles)
	m["core.port_grants"] = f(a.grants)
	m["core.grant_frac"] = safeDiv(f(a.grants), f(a.grants+a.rejects))
	m["core.lb_hit_frac"] = safeDiv(f(a.lbLoads), f(a.loads))
	m["core.sb_stores_per_drain"] = safeDiv(f(a.sbInserts), f(a.sbDrains))
	m["mem.l1d_miss_frac"] = safeDiv(f(a.l1dMisses), f(a.l1dHits+a.l1dMisses))
	m["mem.dram_accesses"] = f(a.dram)
	m["mem.dtlb_miss_frac"] = safeDiv(f(a.dtlbMisses), f(a.dtlbHits+a.dtlbMisses))
	m["bpred.mispredict_frac"] = safeDiv(f(a.mispredicts), f(a.branches))
	if !withStack {
		return
	}
	var total uint64
	for _, v := range a.stack {
		total += v
	}
	share := func(bs ...cpustack.Bucket) float64 {
		var n uint64
		for _, b := range bs {
			n += a.stack[b]
		}
		return safeDiv(f(n), f(total))
	}
	m["cpustack.useful_frac"] = share(cpustack.Useful)
	m["cpustack.fetch_starved_frac"] = share(cpustack.FetchStarved)
	m["cpustack.issue_frac"] = share(cpustack.IssuePortReject, cpustack.IssueOperandWait, cpustack.IssueDivider)
	m["cpustack.mem_frac"] = share(cpustack.MemMSHRFull, cpustack.MemDRAMBandwidth, cpustack.MemFillWait)
	m["cpustack.store_buffer_full_frac"] = share(cpustack.StoreBufferFull)
	m["cpustack.commit_stall_frac"] = share(cpustack.CommitStall)
	m["cpustack.skipped_inert_frac"] = share(cpustack.SkippedInert)
	m["cpu.stepped_frac"] = 1 - share(cpustack.SkippedInert)
}

// cellCollector is a traced campaign's cell observer. It counts cell
// outcomes, times simulated cells with the clock injected into the runner,
// and sums their results. The runner serialises observer calls; the mutex
// orders them with the child's own reads.
type cellCollector struct {
	mu     sync.Mutex
	rec    *spanRecorder
	insts  uint64
	parent int

	events, simulated, memo, store int
	walls                          []float64
	intervals                      [][2]time.Time
	agg                            modelAgg
	problems                       []string
}

// setParent names the experiment span that later cells belong to.
func (c *cellCollector) setParent(id int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.parent = id
	c.mu.Unlock()
}

func (c *cellCollector) observe(ev experiments.CellEvent) {
	end := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.events++
	switch {
	case ev.MemoHit:
		c.memo++
	case ev.StoreHit:
		c.store++
	default:
		c.simulated++
		start := end.Add(-time.Duration(ev.WallSeconds * 1e9))
		c.walls = append(c.walls, ev.WallSeconds)
		c.intervals = append(c.intervals, [2]time.Time{start, end})
		c.rec.addConcurrent(c.parent, ev.Workload+"@"+ev.Machine, "cpu", start, end)
		if ev.Result == nil {
			return
		}
		if ev.Result.Instructions != c.insts {
			c.problems = append(c.problems, fmt.Sprintf("%s on %s committed %d of %d instructions",
				ev.Workload, ev.Machine, ev.Result.Instructions, c.insts))
		}
		c.agg.add(ev.Result)
	}
}

// busyUnion is the wall time during which at least one cell simulated.
func (c *cellCollector) busyUnion() time.Duration {
	iv := append([][2]time.Time(nil), c.intervals...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0].Before(iv[j][0]) })
	var total time.Duration
	var cur [2]time.Time
	for i, x := range iv {
		switch {
		case i == 0:
			cur = x
		case !x[0].After(cur[1]):
			if x[1].After(cur[1]) {
				cur[1] = x[1]
			}
		default:
			total += cur[1].Sub(cur[0])
			cur = x
		}
	}
	if len(iv) > 0 {
		total += cur[1].Sub(cur[0])
	}
	return total
}

// campaignLayers fills a traced campaign's per-layer metrics.
func (e *env) campaignLayers(s *sample, phases []*phase, cells *cellCollector, wall time.Duration, storeDir string) error {
	m := s.Metrics
	cells.mu.Lock()
	s.Problems = append(s.Problems, cells.problems...)
	busy := 0.0
	for _, w := range cells.walls {
		busy += w
	}
	m["experiments.cells"] = float64(cells.events)
	m["experiments.cells_simulated"] = float64(cells.simulated)
	m["experiments.memo_hits"] = float64(cells.memo)
	m["experiments.store_hits"] = float64(cells.store)
	m["experiments.cell_busy_s"] = busy
	m["experiments.cell_p50_ms"] = percentile(cells.walls, 50) * 1e3
	m["experiments.cell_p95_ms"] = percentile(cells.walls, 95) * 1e3
	m["experiments.idle_s"] = (wall - cells.busyUnion()).Seconds()
	m["experiments.parallel_eff"] = busy / (float64(workers()) * wall.Seconds())
	cells.agg.fill(m, true)
	cells.mu.Unlock()
	m["cpu.ns_per_stepped_cycle"] = safeDiv(busy*1e9, m["cpu.sim_cycles"]*m["cpu.stepped_frac"])

	var poolHits, poolMisses uint64
	var render, open time.Duration
	var resident int64
	var puts, hits, quarantined uint64
	for _, p := range phases {
		for id, secs := range p.expSecs {
			m["experiments.exp_s."+id] += secs
		}
		h, miss := p.runner.PoolStats()
		poolHits += h
		poolMisses += miss
		if a, ok := p.runner.ArenaStats(); ok {
			m["trace.arena_builds"] += float64(a.Builds)
			m["trace.arena_replays"] += float64(a.Hits)
			m["trace.arena_fallbacks"] += float64(a.Fallbacks)
			m["trace.arena_evictions"] += float64(a.Evictions)
			resident = max(resident, a.Bytes)
		}
		render += p.render
		open += p.openTime
		if p.store != nil {
			st := p.store.Stats()
			puts += st.Puts
			hits += st.Hits
			quarantined += st.Quarantined
		}
	}
	m["experiments.pool_hit_frac"] = safeDiv(float64(poolHits), float64(poolHits+poolMisses))
	m["trace.arena_resident_mib"] = float64(resident) / (1 << 20)
	m["stats.render_ms"] = render.Seconds() * 1e3
	m["cellstore.puts"] = float64(puts)
	m["cellstore.hits"] = float64(hits)
	m["cellstore.quarantined"] = float64(quarantined)
	m["cellstore.open_ms"] = open.Seconds() * 1e3
	if storeDir != "" {
		if err := e.probeStore(m, storeDir); err != nil {
			return err
		}
	}
	return e.probeLayers(m, e.insts, true)
}
