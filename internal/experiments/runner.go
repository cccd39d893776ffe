package experiments

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/core"
	"portsim/internal/cpu"
	"portsim/internal/cpustack"
	"portsim/internal/diag"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// Spec sets the scale of an experiment run.
type Spec struct {
	// Workloads are the profile names to evaluate.
	Workloads []string
	// Insts is the committed-instruction budget per simulation.
	Insts uint64
	// Seed feeds every workload generator.
	Seed int64
	// Parallel bounds the number of simulations executing concurrently.
	// Zero or negative selects runtime.GOMAXPROCS(0). Every simulation is
	// deterministic and cells are merged in submission order, so the
	// rendered tables are byte-identical at any parallelism level.
	Parallel int
	// FlightRecorder arms the per-cell pipeline flight recorder so any
	// cell failure carries its last diag.DefaultDepth events. It is off
	// by default; cells poisoned by Fault always record regardless.
	FlightRecorder bool
	// Fault, when non-nil, poisons every cell of the matching workload —
	// the fault-injection hook behind the robustness tests and portbench
	// -inject. Healthy workloads are unaffected.
	Fault *Fault
	// Trace, when non-nil, arms a deep flight recorder for the first
	// submission of the named cell so its tail can be exported as a
	// Perfetto trace (portbench -trace-out). All other cells run exactly
	// as without it, so tables stay byte-identical.
	Trace *TraceSpec
	// Store, when non-nil, is the durable cell store consulted between the
	// in-process memo and the simulator (lookup order: memo → store →
	// simulate → Put). A warm store restores finished cells — results and
	// deterministic failures alike — without simulating; the tables a
	// campaign renders are byte-identical with the store on, off, cold or
	// warm. Store trouble never fails a run: corrupt entries quarantine and
	// re-simulate, a broken disk degrades the store to store-less operation.
	Store *cellstore.Store
	// ArenaBudget bounds the shared trace-arena registry in bytes: each
	// (profile, seed) dynamic trace is materialised once and replayed by
	// every cell that needs it, falling back to live generation for cells
	// the budget cannot hold. Zero selects DefaultArenaBudget; negative
	// disables arenas entirely. Tables are byte-identical at any setting —
	// replay and live generation produce the same instruction stream.
	ArenaBudget int64
	// CPIStack arms per-cell cycle accounting (cpu.Options.CPIStack):
	// every simulated cell carries a conservation-checked attribution
	// stack on its CellEvent and Result. Accounting never perturbs
	// results — tables are byte-identical on or off — and adds one atomic
	// charge per simulated cycle when armed.
	CPIStack bool
}

// TraceSpec names the one cell whose pipeline events a campaign captures.
type TraceSpec struct {
	// Workload is the workload name to match.
	Workload string
	// Machine is the machine name to match; empty matches any machine.
	Machine string
	// Depth is the recorder ring capacity; DefaultTraceDepth when not
	// positive.
	Depth int
}

// DefaultTraceDepth is the trace recorder's ring capacity: deep enough to
// hold the full event stream of a quick cell (a few events per cycle over
// tens of thousands of cycles), shallow enough to stay tens of megabytes.
const DefaultTraceDepth = 1 << 20

// TraceCapture is the captured tail of the traced cell.
type TraceCapture struct {
	// Machine and Workload identify the cell that was captured.
	Machine  string
	Workload string
	// Seed is the spec's workload seed.
	Seed int64
	// Lanes is the traced machine's port slots per cycle (track lanes).
	Lanes int
	// Events is the recorder tail in recording (cycle) order.
	Events []diag.Event
	// Dropped counts events lost to ring wraparound before the tail;
	// Total is every event recorded.
	Dropped uint64
	Total   uint64
}

// CellEvent describes one finished experiment cell, delivered to the
// observer installed with SetCellObserver. One event fires per cell
// submission: memo hits report the cached result with MemoHit set.
type CellEvent struct {
	// Machine and Workload label the cell as submitted. ConfigJSON is the
	// machine configuration (as simulated, after fault arming, for the
	// cell that ran it).
	Machine    string
	Workload   string
	ConfigJSON []byte
	// Key is the cell's content address (cellstore.Key.ID), shared by
	// every submission of one simulation whatever its labels.
	Key string
	// MemoHit marks a cell satisfied from the memo cache without
	// simulating.
	MemoHit bool
	// StoreHit marks a cell restored from the durable store (Spec.Store)
	// without simulating. At most one of MemoHit/StoreHit is set: waiters
	// on an in-flight cell report MemoHit even when the owner's fill was a
	// store restore.
	StoreHit bool
	// WallSeconds is the cell's simulation wall time (zero for memo hits
	// and when no clock was injected).
	WallSeconds float64
	// Result is the cell's result; nil when the cell failed, in which
	// case Err carries the failure.
	Result *cpu.Result
	Err    error
	// CPIStack is the cell's frozen cycle-attribution stack when
	// Spec.CPIStack armed accounting; nil otherwise. Unlike
	// Result.CPIStack it is populated for failed cells too — the
	// attribution of a wedged run is exactly what a diagnosis wants.
	CPIStack *cpustack.Snapshot
}

// CellStart announces a cell entering simulation, delivered to the
// observer installed with SetCellStartObserver. Memo and store hits never
// start — they complete without simulating — so a start pairs with
// exactly one later CellEvent for the same (machine, workload, config).
type CellStart struct {
	// Machine and Workload identify the cell; ConfigJSON is the machine
	// configuration as simulated (after fault arming, if any).
	Machine    string
	Workload   string
	ConfigJSON []byte
	// Experiment is the experiment label set with SetExperiment, "" when
	// the driver did not label the sweep.
	Experiment string
	// Stack is the cell's live CPI stack — the same object the simulation
	// charges — so a status plane can snapshot mid-run attribution. Nil
	// when Spec.CPIStack is off.
	Stack *cpustack.Stack
}

// DefaultSpec runs every workload at full length, the configuration behind
// EXPERIMENTS.md.
func DefaultSpec() Spec {
	return Spec{Workloads: workload.Names(), Insts: 300_000, Seed: 42}
}

// QuickSpec is a reduced configuration for tests and -short benchmarks.
func QuickSpec() Spec {
	return Spec{Workloads: []string{"compress", "eqntott", "database"}, Insts: 40_000, Seed: 42}
}

// memoEntry is one singleflight slot in the runner's memo cache: the first
// caller of a cell key owns the simulation and everyone else blocks on done.
type memoEntry struct {
	done chan struct{}
	res  *cpu.Result
	err  error
}

// Runner executes simulations and memoises results by content (cellKey),
// since the paper's sweeps share their base points under many names. It is
// safe for concurrent use: the memo cache is singleflight (a duplicate cell
// waits for the in-flight simulation instead of re-running it) and the work
// accumulators are atomic.
type Runner struct {
	spec     Spec
	parallel int

	mu    sync.Mutex
	cache map[cellstore.Key]*memoEntry

	// Core pool: a free list of at most parallel finished cores. Every
	// machine of the campaign shares one array shape and differs only in
	// its ports and policy flags, so a later cell retargets whichever core
	// it pops (cpu.Core.Retarget) instead of allocating cache tags,
	// predictor tables and register files. Cores from failed, panicked or
	// fault-armed cells are never returned.
	poolMu   sync.Mutex
	pool     []*cpu.Core
	poolHits atomic.Uint64
	poolMiss atomic.Uint64

	// simCycles and simInsts accumulate over actual simulations only —
	// memoised cache hits are excluded — so host-throughput reports
	// (cmd/portbench) divide real simulated work by real wall time.
	simCycles atomic.Uint64
	simInsts  atomic.Uint64

	// progressMu serialises progress callbacks so a user-supplied sink
	// (e.g. a terminal line) never sees interleaved or regressing counts.
	progressMu sync.Mutex
	doneCells  int
	progress   func(done int)

	// obsMu guards the per-cell observers (telemetry sink, campaign
	// status plane) and serialises their invocations. The observers are
	// nil when telemetry is off; the cost of the check is one mutex
	// acquisition per cell — never per cycle.
	obsMu    sync.Mutex
	observer func(CellEvent)
	obsNow   func() time.Time
	startObs func(CellStart)

	// experiment is the current experiment label for cell starts and
	// pprof labels, set by the driver between sweeps (SetExperiment).
	experiment atomic.Value // string

	// traceMu guards the single trace capture of a Spec.Trace campaign.
	traceMu    sync.Mutex
	traceArmed bool
	traceCap   *TraceCapture

	// arenas is the shared trace-arena registry (see arena.go); nil when
	// disabled by Spec.ArenaBudget.
	arenas *arenaRegistry

	// demands caches workload.ProcessDemand at the spec's seed and budget
	// per (processes, quantum), for arenaLen.
	demandMu sync.Mutex
	demands  map[[2]int][]uint64
}

// NewRunner returns a runner for the spec.
func NewRunner(spec Spec) *Runner {
	parallel := spec.Parallel
	if parallel <= 0 {
		parallel = runtime.GOMAXPROCS(0)
	}
	r := &Runner{
		spec:     spec,
		parallel: parallel,
		cache:    make(map[cellstore.Key]*memoEntry),
	}
	budget := spec.ArenaBudget
	if budget == 0 {
		budget = DefaultArenaBudget
	}
	if budget > 0 {
		r.arenas = newArenaRegistry(budget)
	}
	return r
}

// Spec returns the runner's spec.
func (r *Runner) Spec() Spec { return r.spec }

// Parallel returns the effective worker count.
func (r *Runner) Parallel() int { return r.parallel }

// SetProgress installs a callback invoked with the cumulative number of
// completed experiment cells. Calls are serialised; the callback must not
// invoke the runner.
func (r *Runner) SetProgress(fn func(done int)) {
	r.progressMu.Lock()
	r.progress = fn
	r.progressMu.Unlock()
}

// noteProgress records one completed cell and notifies the callback.
func (r *Runner) noteProgress() {
	r.progressMu.Lock()
	r.doneCells++
	done, fn := r.doneCells, r.progress
	if fn != nil {
		fn(done)
	}
	r.progressMu.Unlock()
}

// SetCellObserver installs a per-cell telemetry sink invoked once for
// every cell submission — simulated, memoised or failed. now supplies the
// wall clock for cell timing and may be nil (cells then report zero wall
// time); the runner itself never reads a clock, keeping the determinism
// lint meaningful. Calls are serialised; the observer must not invoke the
// runner. A nil fn disables observation.
func (r *Runner) SetCellObserver(fn func(CellEvent), now func() time.Time) {
	r.obsMu.Lock()
	r.observer = fn
	r.obsNow = now
	r.obsMu.Unlock()
}

// SetCellStartObserver installs a callback invoked when a cell enters
// simulation, carrying the cell's live CPI stack (when armed) so a status
// plane can report running cells. Memo and store hits never fire it.
// Calls are serialised with the cell observer; a nil fn disables it.
func (r *Runner) SetCellStartObserver(fn func(CellStart)) {
	r.obsMu.Lock()
	r.startObs = fn
	r.obsMu.Unlock()
}

// emitCellStart delivers one start notification under the observer lock.
func (r *Runner) emitCellStart(ev CellStart) {
	r.obsMu.Lock()
	if r.startObs != nil {
		r.startObs(ev)
	}
	r.obsMu.Unlock()
}

// SetExperiment labels the cells submitted from now on with an experiment
// name (cell starts, pprof profiler labels). The drivers run experiments
// sequentially, so a single label suffices; it never influences results.
func (r *Runner) SetExperiment(name string) { r.experiment.Store(name) }

// Experiment returns the current experiment label.
func (r *Runner) Experiment() string {
	name, _ := r.experiment.Load().(string)
	return name
}

// emitCell delivers one observer event under the observer lock, filling in
// the cell's labels, key and, unless set, configuration.
func (r *Runner) emitCell(c *cellReq, key cellstore.Key, ev CellEvent) {
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	if r.observer == nil {
		return
	}
	ev.Machine, ev.Workload, ev.Key = c.m.Name, c.workload, key.ID()
	if ev.ConfigJSON == nil {
		ev.ConfigJSON, _ = c.m.ToJSON()
	}
	if ev.CPIStack == nil && ev.Result != nil {
		ev.CPIStack = ev.Result.CPIStack
	}
	r.observer(ev)
}

// Trace returns the captured trace of the Spec.Trace cell, or nil when no
// matching cell has simulated (or tracing was not requested).
func (r *Runner) Trace() *TraceCapture {
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	return r.traceCap
}

// armTrace claims the campaign's single trace slot when the cell's labels
// match Spec.Trace, returning the deep recorder to simulate with. Only the
// first matching submission captures: an owner records as it runs, and a
// memo hit replays its key (see run).
func (r *Runner) armTrace(machineName, workloadName string) *diag.Recorder {
	t := r.spec.Trace
	if t == nil || t.Workload != workloadName {
		return nil
	}
	if t.Machine != "" && t.Machine != machineName {
		return nil
	}
	r.traceMu.Lock()
	defer r.traceMu.Unlock()
	if r.traceArmed {
		return nil
	}
	r.traceArmed = true
	depth := t.Depth
	if depth <= 0 {
		depth = DefaultTraceDepth
	}
	return diag.NewRecorder(depth)
}

// captureTrace stores the traced cell's tail for Trace().
func (r *Runner) captureTrace(rec *diag.Recorder, m *config.Machine, workloadName string) {
	r.traceMu.Lock()
	r.traceCap = &TraceCapture{
		Machine:  m.Name,
		Workload: workloadName,
		Seed:     r.spec.Seed,
		Lanes:    core.SlotsPerCycle(m.Ports),
		Events:   rec.Events(),
		Dropped:  rec.Dropped(),
		Total:    rec.Total(),
	}
	r.traceMu.Unlock()
}

// SimulatedCycles returns the total simulated cycles across every
// non-memoised run this runner has executed.
func (r *Runner) SimulatedCycles() uint64 { return r.simCycles.Load() }

// SimulatedInstructions returns the total committed instructions across
// every non-memoised run this runner has executed.
func (r *Runner) SimulatedInstructions() uint64 { return r.simInsts.Load() }

// streamSpec names a cell's instruction stream: a profile run alone or,
// with processes > 0, as a quantum-interleaved multiprogram (A6).
type streamSpec struct {
	prof               workload.Profile
	processes, quantum int
}

// planStream is one row of an experiment's plan: the instruction stream its
// cells run and the workload label they report under (a workload name,
// F7's database-k-* profile name, A6's compress-xN). Labels never reach the
// model, so they are not part of a cell's identity (cellKey). err is set
// when the stream names no workload profile; every cell of the row fails
// with it.
type planStream struct {
	workload string
	streamSpec
	err error
}

// named returns the stream of a workload profile, labelled by its name.
func named(name string) planStream {
	prof, ok := workload.ByName(name)
	if !ok {
		return planStream{workload: name, err: fmt.Errorf("experiments: unknown workload %q", name)}
	}
	return planStream{workload: name, streamSpec: streamSpec{prof: prof}}
}

// cellReq is one experiment cell as submitted: a stream on a machine.
type cellReq struct {
	m config.Machine
	planStream
}

// cellKey is the one content-addressed cell identity of a campaign: the
// memo and the store key on all of it, and the arena registry on a
// machine-less key (nil m) per process trace.
// Display names (Machine.Name, Profile.Name, Profile.Description) never
// reach the model, so they are cleared and renamed cells are one
// simulation. fault is the spec's fault descriptor when it poisons the
// cell.
func cellKey(m *config.Machine, s streamSpec, seed int64, insts uint64, fault string) (k cellstore.Key, err error) {
	k = cellstore.Key{Seed: seed, Insts: insts, Fault: fault}
	if m != nil {
		anon := *m
		anon.Name = ""
		if k.Config, err = cellstore.ContentHash(&anon); err != nil {
			return k, err
		}
	}
	s.prof.Name, s.prof.Description = "", ""
	k.Stream, err = cellstore.ContentHash(struct {
		Profile   workload.Profile
		Processes int `json:",omitempty"`
		Quantum   int `json:",omitempty"`
	}{s.prof, s.processes, s.quantum})
	return k, err
}

// reproProfile is the (possibly mutated) profile a repro bundle replays;
// nil for multiprogrammed cells, whose stream a bundle cannot describe.
func (c *cellReq) reproProfile() *workload.Profile {
	if c.processes > 0 {
		return nil
	}
	p := c.prof
	return &p
}

// Run simulates one workload on one machine through the runner's single
// cell path (see run).
func (r *Runner) Run(m config.Machine, workloadName string) (*cpu.Result, error) {
	return r.run(cellReq{m: m, planStream: named(workloadName)})
}

// run is the one entry path of every cell — named workloads, mutated
// profiles and multiprogrammed streams alike: memo → store → simulate →
// Put, keyed by cellKey. Concurrent submissions of a key share one
// simulation. Failures are memoised like results: the simulator is
// deterministic, so the campaign reports one failure per distinct cell
// instead of re-dying once per experiment that shares it.
func (r *Runner) run(c cellReq) (*cpu.Result, error) {
	if c.err != nil {
		return nil, c.err
	}
	if r.spec.Insts == 0 {
		// The generators never end and cpu.DeadlineFor(0) turns the
		// deadline off, so such a cell would simulate forever.
		return nil, errors.New("experiments: Spec.Insts is 0; a cell needs a positive instruction budget")
	}
	fault := ""
	if r.spec.Fault.applies(c.workload) {
		fault = r.spec.Fault.String()
	}
	key, err := cellKey(&c.m, c.streamSpec, r.spec.Seed, r.spec.Insts, fault)
	if err != nil {
		return nil, err
	}
	r.mu.Lock()
	if e, ok := r.cache[key]; ok {
		r.mu.Unlock()
		<-e.done
		// The owner may have run under other names; a trace requested by
		// this cell's names replays the key, reproducing that run exactly.
		if rec := r.armTrace(c.m.Name, c.workload); rec != nil {
			r.runStream(&c, key, rec, false)
		}
		r.emitCell(&c, key, CellEvent{MemoHit: true, Result: e.res, Err: e.err})
		return e.res, e.err
	}
	e := &memoEntry{done: make(chan struct{})}
	r.cache[key] = e
	r.mu.Unlock()
	r.fill(e, func() (*cpu.Result, error) { return r.runDurable(&c, key) })
	return e.res, e.err
}

// fill runs the owning caller's simulation into the memo entry and then
// releases the waiters. The deferred recover sits between the work and the
// close (LIFO order: recover stores the error first, then done is closed),
// fixing the memo-poisoning bug where a panicking owner closed e.done with
// res == nil, err == nil and every waiter received a silent nil result
// forever. runStream contains panics with full cell context; this recover
// is the backstop for panics outside the simulation itself (stream setup,
// result accounting).
func (r *Runner) fill(e *memoEntry, run func() (*cpu.Result, error)) {
	defer close(e.done)
	defer func() {
		if p := recover(); p != nil {
			e.res = nil
			e.err = &CellError{
				Seed:  r.spec.Seed,
				Insts: r.spec.Insts,
				Stack: string(debug.Stack()),
				Err:   fmt.Errorf("%w: %v", ErrCellPanic, p),
			}
		}
	}()
	e.res, e.err = run()
}

// acquireCore returns a core for the machine: a pooled one retargeted to
// it when the pool holds one of the same array shape, else a new one. A
// popped core of another shape is dropped; the new core takes its place
// on release. Unpooled cells (fault-armed ones, whose arming mutates the
// machine) neither draw nor count.
func (r *Runner) acquireCore(m *config.Machine, stream trace.Stream, pooled bool) (*cpu.Core, error) {
	if pooled {
		var c *cpu.Core
		r.poolMu.Lock()
		if n := len(r.pool); n > 0 {
			c = r.pool[n-1]
			r.pool = r.pool[:n-1]
		}
		r.poolMu.Unlock()
		if c != nil {
			ok, err := c.Retarget(m, stream)
			if err != nil {
				return nil, err
			}
			if ok {
				r.poolHits.Add(1)
				return c, nil
			}
		}
		r.poolMiss.Add(1)
	}
	return cpu.New(m, stream)
}

// releaseCore returns a healthy core to the pool, which holds at most one
// core per worker: no more can ever be in use at once.
func (r *Runner) releaseCore(c *cpu.Core) {
	r.poolMu.Lock()
	if len(r.pool) < r.parallel {
		r.pool = append(r.pool, c)
	}
	r.poolMu.Unlock()
}

// PoolStats reports how many cells reused a pooled core versus built one,
// for tests and throughput diagnostics.
func (r *Runner) PoolStats() (hits, misses uint64) {
	return r.poolHits.Load(), r.poolMiss.Load()
}

// runStream opens the cell's stream and simulates it. This is the cell
// crash boundary: a panic anywhere in the simulation — the stream, the
// pipeline model, the memory system — is contained here into a CellError
// carrying the machine configuration, the cell identity, the stack, and
// the flight recorder's tail. Simulation errors (deadline, watchdog stall)
// are wrapped into CellErrors with the same context, minus the stack.
// observed is false for the trace replay of a memoised cell, which is
// neither counted nor reported.
func (r *Runner) runStream(c *cellReq, key cellstore.Key, traceRec *diag.Recorder, observed bool) (res *cpu.Result, err error) {
	stream, release, err := r.openStream(c.streamSpec)
	if err != nil {
		return nil, err
	}
	defer release()
	// A trace-armed cell gets the deep recorder; otherwise the ordinary
	// forensic ring, armed only when requested or fault-poisoned. Arming a
	// fault mutates the cell's private machine copy, so its core never
	// pools.
	m := c.m
	rec := traceRec
	armed := r.spec.Fault.applies(c.workload)
	if rec == nil && (r.spec.FlightRecorder || armed) {
		rec = diag.NewRecorder(0)
	}
	if armed {
		stream = r.spec.Fault.arm(&m, stream)
	}
	cellErr := func(stack string, cause error) *CellError {
		events := rec.Events()
		if len(events) > diag.DefaultDepth {
			// A trace-deep recorder holds ~10^6 events; a failure report
			// only ever shows the tail, so cap what the error carries.
			events = events[len(events)-diag.DefaultDepth:]
		}
		return &CellError{
			Machine:  m,
			Workload: c.workload,
			Profile:  c.reproProfile(),
			Seed:     r.spec.Seed,
			Insts:    r.spec.Insts,
			Stack:    stack,
			Events:   events,
			Err:      cause,
		}
	}
	// Per-cell cycle accounting: a fresh caller-owned stack per cell, so
	// the live object can be handed to the status plane (CellStart) while
	// the simulation charges it, and snapshotted even when the cell fails.
	var stack *cpustack.Stack
	if r.spec.CPIStack {
		stack = cpustack.NewStack()
	}
	var obs func(CellEvent)
	var obsNow func() time.Time
	var startObs func(CellStart)
	if observed {
		r.obsMu.Lock()
		obs, obsNow, startObs = r.observer, r.obsNow, r.startObs
		r.obsMu.Unlock()
	}
	// The observer defer is registered before the recover defer, so on a
	// panic it runs after recovery has turned the panic into res/err and
	// reports the cell's final outcome. The trace is captured on every
	// path — a trace of the failing cell is exactly what a diagnosis
	// wants.
	var cfgJSON []byte
	if obs != nil || startObs != nil {
		cfgJSON, _ = m.ToJSON()
	}
	var cellStart time.Time
	if obs != nil && obsNow != nil {
		cellStart = obsNow()
	}
	defer func() {
		if traceRec != nil {
			r.captureTrace(traceRec, &m, c.workload)
		}
		if obs == nil {
			return
		}
		ev := CellEvent{ConfigJSON: cfgJSON, Result: res, Err: err, CPIStack: stack.Snapshot()}
		if obsNow != nil {
			ev.WallSeconds = obsNow().Sub(cellStart).Seconds()
		}
		r.emitCell(c, key, ev)
	}()
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = cellErr(string(debug.Stack()), fmt.Errorf("%w: %v", ErrCellPanic, p))
		}
	}()
	if startObs != nil {
		r.emitCellStart(CellStart{
			Machine:    m.Name,
			Workload:   c.workload,
			ConfigJSON: cfgJSON,
			Experiment: r.Experiment(),
			Stack:      stack,
		})
	}
	simulate := func() {
		var core *cpu.Core
		core, err = r.acquireCore(&m, stream, !armed)
		if err != nil {
			return
		}
		res, err = core.Run(cpu.Options{
			MaxInstructions: r.spec.Insts,
			DeadlineCycles:  cpu.DeadlineFor(r.spec.Insts),
			StallCycles:     cpu.DefaultStallCycles,
			Recorder:        rec,
			CPIStack:        stack,
		})
		if err != nil {
			// The failed core is dropped, not pooled: its state is part
			// of the failure evidence and may be wedged.
			res = nil
			err = cellErr("", fmt.Errorf("experiments: %s on %s: %w", c.workload, m.Name, err))
			return
		}
		if res.Instructions < r.spec.Insts {
			// Every runner stream is endless or an arena at least as long
			// as the cell's demand, so a short run is a sizing bug; its
			// row would render truncated numbers as if they were whole.
			err = cellErr("", fmt.Errorf("experiments: %s on %s: stream ended after %d of %d instructions",
				c.workload, m.Name, res.Instructions, r.spec.Insts))
			res = nil
			return
		}
		if observed {
			r.simCycles.Add(res.Cycles)
			r.simInsts.Add(res.Instructions)
		}
		if !armed {
			r.releaseCore(core)
		}
	}
	if obs != nil || startObs != nil {
		// With a telemetry plane attached, label the simulation goroutine
		// so CPU profiles (/debug/pprof/profile) segment by cell and
		// experiment. Labels never influence results; the plain path
		// stays completely untouched when observability is off.
		pprof.Do(context.Background(), pprof.Labels(
			"cell", key.ID(),
			"experiment", r.Experiment(),
			"workload", c.workload,
			"machine", m.Name,
		), func(context.Context) { simulate() })
	} else {
		simulate()
	}
	return res, err
}
