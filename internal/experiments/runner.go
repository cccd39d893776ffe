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
	// Fault, when non-nil, poisons every cell of the matching workload —
	// the fault-injection hook behind the robustness tests and portbench
	// -inject. Healthy workloads are unaffected.
	Fault *Fault
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

// CellEvent describes one finished experiment cell, delivered to the
// observer installed with SetCellObserver. One event fires per cell
// submission: memo hits report the cached result with MemoHit set.
type CellEvent struct {
	// Machine and Workload label the cell as submitted. ConfigJSON is the
	// machine configuration (as simulated, after fault arming, for the
	// cell that ran it); events of one machine share its bytes, so an
	// observer must not modify them.
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
	// configuration as simulated (after fault arming, if any), shared
	// like CellEvent.ConfigJSON.
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
	// configs memoises each machine's content hash, the cell key's Config,
	// by the value of the machine with its display name cleared; docs
	// memoises the configuration document observers receive, by the
	// machine as labelled. Both are guarded by mu.
	configs map[config.Machine]string
	docs    map[config.Machine][]byte

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
		configs:  make(map[config.Machine]string),
		docs:     make(map[config.Machine][]byte),
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
func (r *Runner) emitCell(c *cellReq, ev CellEvent) {
	r.obsMu.Lock()
	defer r.obsMu.Unlock()
	if r.observer == nil {
		return
	}
	ev.Machine, ev.Workload, ev.Key = c.m.Name, c.workload, c.keyID()
	if ev.ConfigJSON == nil {
		ev.ConfigJSON = r.configDoc(&c.m)
	}
	if ev.CPIStack == nil && ev.Result != nil {
		ev.CPIStack = ev.Result.CPIStack
	}
	r.observer(ev)
}

// SimulatedCycles returns the total simulated cycles across every
// non-memoised run this runner has executed.
func (r *Runner) SimulatedCycles() uint64 { return r.simCycles.Load() }

// SimulatedInstructions returns the total committed instructions across
// every non-memoised run this runner has executed.
func (r *Runner) SimulatedInstructions() uint64 { return r.simInsts.Load() }

// streamSpec names a cell's instruction stream: a profile run alone or,
// with processes > 0, as a quantum-interleaved multiprogram (A6). profHash
// and hash are its content hashes, derived once by hashed: profHash keys
// each process's trace in the arena registry (arenaKey), hash is the cell
// key's Stream.
type streamSpec struct {
	prof               workload.Profile
	processes, quantum int
	profHash, hash     string
}

// hashed returns s with its content hashes derived. Display labels
// (Profile.Name, Profile.Description) never reach the model, so they are
// cleared and renamed profiles are one stream. A single program's stream
// hash is its profile hash.
func (s streamSpec) hashed() (streamSpec, error) {
	prof := s.prof
	prof.Name, prof.Description = "", ""
	hash := func(processes, quantum int) (string, error) {
		return cellstore.ContentHash(struct {
			Profile   workload.Profile
			Processes int `json:",omitempty"`
			Quantum   int `json:",omitempty"`
		}{prof, processes, quantum})
	}
	var err error
	if s.profHash, err = hash(0, 0); err != nil {
		return s, err
	}
	s.hash = s.profHash
	if s.processes != 0 || s.quantum != 0 {
		s.hash, err = hash(s.processes, s.quantum)
	}
	return s, err
}

// planStream is one row of an experiment's plan: the instruction stream its
// cells run and the workload label they report under (a workload name,
// F7's database-k-* profile name, A6's compress-xN). Labels never reach the
// model, so they are not part of a cell's identity (cellKey). err is set
// when the stream names no workload profile or cannot be hashed; every
// cell of the row fails with it.
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

// hashed returns the row with its stream's content hashes derived, unless
// they already are.
func (s planStream) hashed() planStream {
	if s.err == nil && s.hash == "" {
		s.streamSpec, s.err = s.streamSpec.hashed()
	}
	return s
}

// cellReq is one experiment cell as submitted: a stream on a machine, and
// the key run derives for it.
type cellReq struct {
	m config.Machine
	planStream
	key cellstore.Key
	id  string // key.ID(), once keyID has derived it
}

// keyID returns the cell's content address, hashed at most once per cell
// and only when an observer or a profiler label asks for it.
func (c *cellReq) keyID() string {
	if c.id == "" {
		c.id = c.key.ID()
	}
	return c.id
}

// cellError returns the failure of cell c, which ran on m (its machine as
// simulated, after fault arming) with the flight recorder rec (nil when
// none was armed), carrying what a repro bundle needs to rebuild the
// cell's stream.
func (r *Runner) cellError(c *cellReq, m config.Machine, rec *diag.Recorder, stack string, cause error) *CellError {
	prof := c.prof
	return &CellError{
		Machine:   m,
		Workload:  c.workload,
		Profile:   &prof,
		Processes: c.processes,
		Quantum:   c.quantum,
		Seed:      r.spec.Seed,
		Insts:     r.spec.Insts,
		Stack:     stack,
		Events:    rec.Events(),
		Err:       cause,
	}
}

// cellKey is the one content-addressed cell identity of a campaign: the
// memo and the store key on all of it, the arena registry on arenaKey.
// Display names (Machine.Name, Profile.Name, Profile.Description) never
// reach the model, so they are cleared and renamed cells are one
// simulation. fault is the spec's fault descriptor when it poisons the
// cell. s must be hashed; the machine's hash is memoised (configHash), so
// a key derives nothing per cell.
func (r *Runner) cellKey(m *config.Machine, s *streamSpec, fault string) (cellstore.Key, error) {
	cfg, err := r.configHash(m)
	return cellstore.Key{Config: cfg, Stream: s.hash, Seed: r.spec.Seed, Insts: r.spec.Insts, Fault: fault}, err
}

// configHash returns the content hash of m with its display name cleared,
// derived once per distinct machine: config.Machine is comparable, so the
// memo keys on its value.
func (r *Runner) configHash(m *config.Machine) (string, error) {
	anon := *m
	anon.Name = ""
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.configs[anon]; ok {
		return h, nil
	}
	h, err := cellstore.ContentHash(&anon)
	if err == nil {
		r.configs[anon] = h
	}
	return h, err
}

// configDoc returns m's configuration document for observers (CellEvent
// and CellStart ConfigJSON), marshalled once per distinct machine as
// labelled. Observers share the bytes and must not modify them.
func (r *Runner) configDoc(m *config.Machine) []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	doc, ok := r.docs[*m]
	if !ok {
		doc, _ = m.ToJSON()
		r.docs[*m] = doc
	}
	return doc
}

// run is the one entry path of every cell — named workloads, mutated
// profiles and multiprogrammed streams alike: memo → store → simulate →
// Put, keyed by cellKey. Concurrent submissions of a key share one
// simulation. Failures are memoised like results: the simulator is
// deterministic, so the campaign reports one failure per distinct cell
// instead of re-dying once per experiment that shares it. c's stream must
// be hashed; runPlan hashes each plan row once.
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
	var err error
	if c.key, err = r.cellKey(&c.m, &c.streamSpec, fault); err != nil {
		return nil, err
	}
	r.mu.Lock()
	if e, ok := r.cache[c.key]; ok {
		r.mu.Unlock()
		<-e.done
		r.emitCell(&c, CellEvent{MemoHit: true, Result: e.res, Err: e.err})
		return e.res, e.err
	}
	e := &memoEntry{done: make(chan struct{})}
	r.cache[c.key] = e
	r.mu.Unlock()
	r.fill(e, &c, func() (*cpu.Result, error) { return r.runDurable(&c) })
	return e.res, e.err
}

// fill runs the owning caller's simulation into the memo entry and then
// releases the waiters. The deferred recover sits between the work and the
// close (LIFO order: recover stores the error first, then done is closed),
// fixing the memo-poisoning bug where a panicking owner closed e.done with
// res == nil, err == nil and every waiter received a silent nil result
// forever. runStream contains panics with the recorder's events; this
// recover is the backstop for panics outside the simulation itself (stream
// setup, result accounting), reported against cell c as submitted.
func (r *Runner) fill(e *memoEntry, c *cellReq, run func() (*cpu.Result, error)) {
	defer close(e.done)
	defer func() {
		if p := recover(); p != nil {
			e.res = nil
			e.err = r.cellError(c, c.m, nil, string(debug.Stack()), fmt.Errorf("%w: %v", ErrCellPanic, p))
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
// rec is nil for campaign cells; Bundle.Replay passes the recorder its
// replay records into.
func (r *Runner) runStream(c *cellReq, rec *diag.Recorder) (res *cpu.Result, err error) {
	stream, release, err := r.openStream(&c.streamSpec)
	if err != nil {
		return nil, err
	}
	defer release()
	// A campaign cell gets the forensic ring only when fault-poisoned.
	// Arming a fault mutates the cell's private machine copy, so its core
	// never pools.
	m := c.m
	armed := r.spec.Fault.applies(c.workload)
	if rec == nil && armed {
		rec = diag.NewRecorder(0)
	}
	if armed {
		stream = r.spec.Fault.arm(&m, stream)
	}
	// Per-cell cycle accounting: a fresh caller-owned stack per cell, so
	// the live object can be handed to the status plane (CellStart) while
	// the simulation charges it, and snapshotted even when the cell fails.
	var stack *cpustack.Stack
	if r.spec.CPIStack {
		stack = cpustack.NewStack()
	}
	r.obsMu.Lock()
	obs, obsNow, startObs := r.observer, r.obsNow, r.startObs
	r.obsMu.Unlock()
	// The observer defer is registered before the recover defer, so on a
	// panic it runs after recovery has turned the panic into res/err and
	// reports the cell's final outcome.
	var cfgJSON []byte
	if obs != nil || startObs != nil {
		cfgJSON = r.configDoc(&m)
	}
	var cellStart time.Time
	if obs != nil && obsNow != nil {
		cellStart = obsNow()
	}
	defer func() {
		if obs == nil {
			return
		}
		ev := CellEvent{ConfigJSON: cfgJSON, Result: res, Err: err, CPIStack: stack.Snapshot()}
		if obsNow != nil {
			ev.WallSeconds = obsNow().Sub(cellStart).Seconds()
		}
		r.emitCell(c, ev)
	}()
	defer func() {
		if p := recover(); p != nil {
			res = nil
			err = r.cellError(c, m, rec, string(debug.Stack()), fmt.Errorf("%w: %v", ErrCellPanic, p))
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
			err = r.cellError(c, m, rec, "", fmt.Errorf("experiments: %s on %s: %w", c.workload, m.Name, err))
			return
		}
		if res.Instructions < r.spec.Insts {
			// Every runner stream is endless or an arena at least as long
			// as the cell's demand, so a short run is a sizing bug; its
			// row would render truncated numbers as if they were whole.
			err = r.cellError(c, m, rec, "", fmt.Errorf("experiments: %s on %s: stream ended after %d of %d instructions",
				c.workload, m.Name, res.Instructions, r.spec.Insts))
			res = nil
			return
		}
		r.simCycles.Add(res.Cycles)
		r.simInsts.Add(res.Instructions)
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
			"cell", c.keyID(),
			"experiment", r.Experiment(),
			"workload", c.workload,
			"machine", m.Name,
		), func(context.Context) { simulate() })
	} else {
		simulate()
	}
	return res, err
}
