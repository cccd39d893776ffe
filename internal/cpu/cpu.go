// Package cpu implements the dynamic superscalar processor model: a
// 4-wide out-of-order core in the style of the MIPS R10000 — fetch with
// branch prediction, register renaming over physical register files, a
// reorder buffer, issue queues, a load/store queue with store-to-load
// forwarding, and in-order commit. The data side of the machine talks to
// the cache hierarchy exclusively through internal/core's MemPort, which is
// where the paper's port-efficiency techniques live.
//
// The model is trace-driven with execution timing: the workload generator
// supplies the committed path, and speculation is modelled by running the
// branch predictor at fetch and charging redirect bubbles when it disagrees
// with the trace. Wrong-path instructions are not simulated; their cost
// appears as the fetch stall between a mispredicted branch entering the
// pipeline and its resolution, plus the configured redirect penalty. This
// is the standard trace-driven approximation and preserves the property the
// study needs: the burstiness and density of memory references offered to
// the cache port.
package cpu

import (
	"errors"
	"fmt"
	"math"

	"portsim/internal/bpred"
	"portsim/internal/config"
	"portsim/internal/core"
	"portsim/internal/cpustack"
	"portsim/internal/diag"
	"portsim/internal/isa"
	"portsim/internal/mem"
	"portsim/internal/stats"
	"portsim/internal/trace"
)

// never is a completion time that has not been scheduled yet.
const never = math.MaxUint64

// staleGen marks a robEntry readiness cache invalid: readyGen counts up
// from zero and cannot reach it.
const staleGen = ^uint64(0)

// entryState tracks an instruction's progress through the backend.
type entryState uint8

const (
	stateDispatched entryState = iota
	stateIssued                // execution scheduled; completes at doneAt
	stateDone                  // result available
)

// robEntry is one in-flight instruction.
type robEntry struct {
	inst isa.Inst
	seq  uint64

	state  entryState
	doneAt uint64 // completion cycle (valid once issued)

	// Renaming.
	destPhys, prevPhys int16 // -1 when the instruction has no destination
	src1Phys, src2Phys int16 // -1 when no dependence

	// Memory ordering (loads/stores only).
	addrReadyAt uint64 // cycle the effective address is known
	sqMark      uint64 // loads: store-ring tail at dispatch; older stores live in [sqHead, sqMark)

	// dispatchedAt anchors address-generation timing for operand-free
	// memory operations.
	dispatchedAt uint64

	// readyCache memoises the entry's operand-readiness (both operands,
	// or the address operand alone for stores) so the per-cycle issue
	// scans compare one cached word instead of re-reading the ready
	// files. The cache is valid while readyGen matches Core.readyGen: a
	// finite value is final until a memory-order squash bumps the global
	// generation, and a cached never is parked on the blocking register's
	// waiter list, whose pop (at publish, in setDestReady) sets readyGen
	// to staleGen to force the recompute.
	readyCache uint64
	readyGen   uint64

	// waitNext links this entry on a register waiter list while onWaitList
	// (see Core.intWaiter); -1 terminates the list.
	waitNext   int32
	onWaitList bool

	// inLive / inHeap record which issue worklist the entry currently sits
	// in (Core.liveList / Core.wakeHeap) so routing stays idempotent: a
	// dispatched entry lives in at most one of {live list, wake heap,
	// waiter list} plus transiently live+heap after a squash re-route, and
	// the flags keep double insertion impossible.
	inLive bool
	inHeap bool

	// lsqCleanGen caches a load's clean disambiguation verdict: while it
	// equals Core.sqGen, the scan over older in-flight stores is known to
	// find no overlap (and, conservatively, no unresolved address), so a
	// retrying load skips it. Stores leaving the ring cannot dirty a clean
	// verdict; a store issuing can (its now-known address may overlap), and
	// that is exactly what bumps sqGen. Zero (the dispatch state) never
	// matches: sqGen starts at one and counts up.
	lsqCleanGen uint64

	// Control flow.
	mispredicted bool // fetch stalled on this instruction until resolution
	serialize    bool // syscall: fetch resumes only after commit
}

// wakeEntry schedules a dispatched entry's next issue attempt: the ROB
// slice index and the first cycle the entry could pass issue()'s per-entry
// gates (Core.wakeHeap is a min-heap on at).
type wakeEntry struct {
	at  uint64
	idx int32
}

// fetchedInst sits in the fetch buffer between fetch and rename.
type fetchedInst struct {
	inst         isa.Inst
	seq          uint64
	mispredicted bool
	serialize    bool
}

// Options tune a simulation run.
type Options struct {
	// MaxInstructions bounds the committed instruction count; zero means
	// run until the stream ends.
	MaxInstructions uint64
	// DeadlineCycles aborts the run with an error if the cycle count
	// exceeds it — a guard against model deadlocks. Zero disables it.
	DeadlineCycles uint64
	// StallCycles is the forward-progress watchdog: if no instruction
	// commits for this many consecutive cycles the run aborts with an
	// error wrapping ErrStall that names the wedged resource (see
	// Core.StallDiagnosis). Zero disables the watchdog. Unlike
	// DeadlineCycles, which scales with the whole instruction budget, the
	// watchdog bounds a single commit gap, so it catches a wedge within
	// tens of thousands of cycles instead of hundreds of millions.
	StallCycles uint64
	// Recorder, when non-nil, receives cycle-stamped pipeline events
	// (fetch, issue, port grants, store drains, commits, stalls) for
	// failure forensics. A nil recorder costs one nil test per event
	// site; arming one does not change the cycle loop, so a recorded run's
	// results are identical to an unrecorded one.
	Recorder *diag.Recorder
	// CPIStack, when non-nil, arms cycle accounting: every simulated
	// cycle is attributed to exactly one cpustack bucket (see acct.go for
	// the precedence order), and Run verifies the conservation law —
	// bucket sum == cycle count — before returning. The stack is caller-
	// owned so a live observer (the /campaign endpoint) can snapshot it
	// mid-run; Result.CPIStack carries the final frozen stack. A nil stack
	// costs one pointer test per cycle and nothing inside step().
	CPIStack *cpustack.Stack
}

// DefaultStallCycles is the watchdog threshold the experiment engine arms.
// The longest legitimate commit gap in this model is a dependent chain of
// DRAM-latency misses plus a full store-buffer drain — well under a
// thousand cycles for every valid configuration — so fifty thousand cycles
// without a commit can only be a wedge.
const DefaultStallCycles = 50_000

// deadlineCyclesPerInst is the deadlock-guard budget: no sane run needs
// 400 cycles per committed instruction.
const deadlineCyclesPerInst = 400

// DeadlineFor returns the deadlock-guard deadline for a committed-
// instruction budget. The multiplication saturates at math.MaxUint64
// instead of wrapping: a wrapped product would turn the guard into a
// near-instant deadline for absurdly large budgets, while a saturated one
// merely never fires (the cycle counter cannot exceed it). Zero stays
// zero, which disables the guard.
func DeadlineFor(insts uint64) uint64 {
	if insts > math.MaxUint64/deadlineCyclesPerInst {
		return math.MaxUint64
	}
	return deadlineCyclesPerInst * insts
}

// Result summarises a completed simulation.
type Result struct {
	Cycles       uint64
	Instructions uint64
	UserInsts    uint64
	KernelInsts  uint64
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Mispredicts  uint64

	// IPC is Instructions/Cycles.
	IPC float64
	// Counters carries every detailed statistic (port.*, cache.*, ...).
	Counters *stats.Set
	// CPIStack is the frozen cycle-attribution stack, nil unless
	// Options.CPIStack armed accounting. Kept out of Counters so every
	// existing table and stored counter row stays byte-identical with
	// accounting on or off.
	CPIStack *cpustack.Snapshot
}

// Core is the simulated processor plus its memory system.
type Core struct {
	cfg  *config.Machine
	sys  *mem.System
	port *core.MemPort
	pred *bpred.Unit

	cycle uint64
	seq   uint64

	// The instruction stream, read through trace.Batched: fetch pulls
	// instructions through batchBuf in streamChunk-sized refills, one
	// dynamic dispatch per chunk instead of one per instruction. The
	// generators' output is independent of when they are called, so pulling
	// ahead of the pipeline changes nothing the core observes.
	stream             trace.Batcher
	batchBuf           []isa.Inst
	batchPos, batchLen int

	// Reorder buffer as a ring.
	rob       []robEntry
	robHead   int
	robCount  int
	committed uint64
	maxInsts  uint64

	// Issue/complete fast-path bookkeeping. issList/issCount is the
	// compact (unordered) list of ROB slice indices in stateIssued with a
	// scheduled (finite) completion — complete()'s worklist, so its scan
	// touches only entries that can transition instead of the whole ROB.
	// nextDoneAt is a lower bound on the earliest completion among listed
	// entries; complete skips its scan entirely while it lies in the
	// future, which is the common case during long miss shadows. An
	// address-issued store whose data producer is unscheduled (doneAt ==
	// never) stays off the list — it cannot complete — until the
	// producer's publish finalises its doneAt and files it here
	// (setDestReady), so unknown completions neither force nor pad a
	// walk. Count-managed at full ROB capacity: no appends on the hot
	// path.
	issList    []int32
	issCount   int
	nextDoneAt uint64

	// Two-tier issue worklist. liveList (non-stores) and liveStores
	// (stores, which issue on address availability alone in a second
	// pass) hold the program-ordered ROB slice indices of dispatched
	// entries whose operand readiness has already arrived — the only
	// entries issue()'s scans visit. Entries whose readiness (or address
	// generation / divider turn) arrives at a known future cycle wait in
	// wakeHeap, a binary min-heap keyed on that attempt time; drainWake
	// moves them to the matching live list when the clock reaches it.
	// Entries blocked on an unscheduled producer sit on that register's
	// waiter list (intWaiter/fpWaiter) and rejoin through the publish in
	// setDestReady. Heap times may go stale-early (a squash raises
	// readiness, a divider busies up after the push) — the wake then just
	// re-parks the entry, which is safe because a premature visit of an
	// unready entry was always a no-op in the single-list scheme too. All
	// three structures are count-managed at full ROB capacity: no appends
	// on the hot path.
	liveList       []int32
	liveCount      int
	liveStores     []int32
	liveStoreCount int
	wakeHeap       []wakeEntry

	// Store-queue ring: the program-ordered ROB indices of every store
	// between dispatch and commit. sqHead/sqTail are monotone positions
	// (occupancy sqTail-sqHead == sqCount); the backing array is a power
	// of two so position-to-slot is a mask. issueLoad's disambiguation
	// scan walks [sqHead, load.sqMark) backward — exactly the older
	// in-flight stores — instead of every older ROB entry.
	sqRing         []int32
	sqHead, sqTail uint64

	// sqGen is the store-resolution generation backing robEntry.lsqCleanGen
	// (bumped by issueStore, the only event that can dirty a clean
	// disambiguation verdict). Starts at one so a zeroed cache never hits.
	sqGen uint64

	// Physical register files: readyAt per register, free lists.
	intReady, fpReady []uint64
	intFree, fpFree   []int16
	intMap, fpMap     [32]int16

	// Waiter lists: for each unpublished physical register, the dispatched
	// entries whose readiness cache is parked at never waiting on it,
	// singly linked through robEntry.waitNext (-1 terminates). setDestReady
	// pops the destination's list and invalidates exactly those caches —
	// that is what makes a cached never trustworthy between publishes.
	intWaiter, fpWaiter []int32

	// Issue-queue and load/store-queue occupancy (entries are tracked in
	// the ROB itself; these counters model the finite structures).
	intQCount, fpQCount int
	lqCount, sqCount    int

	// Functional-unit availability.
	intDivFreeAt, fpDivFreeAt uint64

	// readyGen is the operand-readiness generation: bumped whenever a
	// memory-order squash rewrites an already-published ready time, which
	// is the only event that can move one. robEntry.readyCache values
	// stamped with an older generation are recomputed on next read.
	readyGen uint64

	// Fetch state. The fetch buffer is a fixed-capacity ring (fbHead is
	// the oldest entry, fbCount the occupancy) so steady-state fetch and
	// dispatch never allocate.
	fetchBuf        []fetchedInst
	fbHead, fbCount int
	fetchBlockedTil uint64
	stallSeq        uint64 // seq of the unresolved control inst blocking fetch (0 = none)
	stallOnCommit   bool   // the blocking instruction releases fetch at commit (syscall)
	curFetchLine    uint64
	havePending     bool
	pending         isa.Inst
	streamDone      bool
	wrongPathPC     uint64 // next wrong-path fetch address (0 = none)
	wrongPathLines  uint64

	// lastCommitSeq guards the fundamental ROB invariant: commits happen
	// in fetch (= program) order. Violations indicate ring-index bugs and
	// abort immediately.
	lastCommitSeq uint64

	// rec is the optional flight recorder (nil when disabled).
	rec *diag.Recorder

	// acct is the optional cycle-attribution stack (nil when disabled);
	// lastBucket tracks the previous classification so a traced cell
	// records an EventCPI only on transitions. See acct.go.
	acct       *cpustack.Stack
	lastBucket cpustack.Bucket

	// Statistics.
	loads, stores, branches, mispredicts uint64
	memViolations                        uint64
	lsqForwards                          uint64
	userInsts, kernelInsts               uint64
	fetchStallCycles, robFullCycles      uint64
	commitStallSB                        uint64
	classCount                           [isa.NumClasses]uint64
}

// pow2AtLeast rounds n up to the next power of two so a ring position maps
// to its slot with a mask instead of a modulo.
func pow2AtLeast(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// New builds a core from a validated machine configuration and an
// instruction stream.
func New(cfg *config.Machine, stream trace.Stream) (*Core, error) {
	if stream == nil {
		return nil, errors.New("cpu: nil instruction stream")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sys, err := mem.NewSystem(cfg)
	if err != nil {
		return nil, err
	}
	pred, err := bpred.New(cfg.Pred)
	if err != nil {
		return nil, err
	}
	c := &Core{
		cfg:        cfg,
		sys:        sys,
		port:       core.NewMemPort(cfg.Ports, sys),
		pred:       pred,
		batchBuf:   make([]isa.Inst, streamChunk),
		rob:        make([]robEntry, cfg.Core.ROBEntries),
		liveList:   make([]int32, cfg.Core.ROBEntries),
		liveStores: make([]int32, cfg.Core.StoreQueueEntries),
		wakeHeap:   make([]wakeEntry, 0, cfg.Core.ROBEntries),
		issList:    make([]int32, cfg.Core.ROBEntries),
		sqRing:     make([]int32, pow2AtLeast(cfg.Core.StoreQueueEntries)),
		fetchBuf:   make([]fetchedInst, 4*cfg.Core.FetchWidth),
		intReady:   make([]uint64, cfg.Core.IntPhysRegs),
		fpReady:    make([]uint64, cfg.Core.FPPhysRegs),
		intFree:    make([]int16, 0, cfg.Core.IntPhysRegs),
		fpFree:     make([]int16, 0, cfg.Core.FPPhysRegs),
		intWaiter:  make([]int32, cfg.Core.IntPhysRegs),
		fpWaiter:   make([]int32, cfg.Core.FPPhysRegs),
	}
	c.reset(stream)
	return c, nil
}

// reset puts the core-local state — pipeline, renamer, queues, fetch,
// statistics — in its starting state over a fresh stream. It keeps the
// configuration, the subsystems and every backing array, so New and
// Retarget write the initial state in one place.
func (c *Core) reset(stream trace.Stream) {
	*c = Core{
		cfg:          c.cfg,
		sys:          c.sys,
		port:         c.port,
		pred:         c.pred,
		stream:       trace.Batched(stream),
		batchBuf:     c.batchBuf,
		rob:          c.rob,
		issList:      c.issList,
		nextDoneAt:   never,
		liveList:     c.liveList,
		liveStores:   c.liveStores,
		wakeHeap:     c.wakeHeap[:0],
		sqRing:       c.sqRing,
		sqGen:        1,
		intReady:     c.intReady,
		fpReady:      c.fpReady,
		intFree:      c.intFree[:0],
		fpFree:       c.fpFree[:0],
		intWaiter:    c.intWaiter,
		fpWaiter:     c.fpWaiter,
		fetchBuf:     c.fetchBuf,
		curFetchLine: ^uint64(0),
		lastBucket:   cpustack.NumBuckets,
	}
	clear(c.rob)
	clear(c.intReady)
	clear(c.fpReady)
	clear(c.fetchBuf)
	for i := range c.intWaiter {
		c.intWaiter[i] = -1
	}
	for i := range c.fpWaiter {
		c.fpWaiter[i] = -1
	}
	// Architectural registers 0..31 map to physical 0..31 initially; the
	// rest are free.
	for i := 0; i < 32; i++ {
		c.intMap[i] = int16(i)
		c.fpMap[i] = int16(i)
	}
	for i := 32; i < len(c.intReady); i++ {
		c.intFree = append(c.intFree, int16(i))
	}
	for i := 32; i < len(c.fpReady); i++ {
		c.fpFree = append(c.fpFree, int16(i))
	}
}

// Reset restores the core — pipeline, renamer, predictors, port subsystem,
// memory hierarchy — to exactly the state New would have produced for the
// same configuration, rewired to a fresh stream: Retarget to the core's own
// machine.
func (c *Core) Reset(stream trace.Stream) error {
	_, err := c.Retarget(c.cfg, stream)
	return err
}

// sameShape reports whether a core built for machine a has the arrays
// machine b needs: the same caches, TLBs, memory timing and predictor, and
// the same sizes for the ROB, store queue, fetch buffer and register files.
// L1D.WriteThrough is a policy, not a size, so it is left out.
func sameShape(a, b *config.Machine) bool {
	l1dA, l1dB := a.L1D, b.L1D
	l1dA.WriteThrough, l1dB.WriteThrough = false, false
	return a.L1I == b.L1I && l1dA == l1dB && a.Mem == b.Mem &&
		a.ITLB == b.ITLB && a.DTLB == b.DTLB && a.Pred == b.Pred &&
		a.Core.ROBEntries == b.Core.ROBEntries &&
		a.Core.StoreQueueEntries == b.Core.StoreQueueEntries &&
		a.Core.FetchWidth == b.Core.FetchWidth &&
		a.Core.IntPhysRegs == b.Core.IntPhysRegs &&
		a.Core.FPPhysRegs == b.Core.FPPhysRegs
}

// Retarget rewires a finished core to machine cfg and a fresh stream,
// restoring exactly the state New(cfg, stream) would produce while reusing
// every backing array, so a pooled simulation pays no per-cell allocation
// for the large structures (cache tags, predictor tables, register files).
// It applies only when cfg has the core's array shape (sameShape); it
// returns false otherwise and leaves the core untouched. The port
// subsystem takes cfg.Ports in place (core.MemPort.Retarget), whatever
// arrangement it had. The equivalence with a freshly built core is what
// TestRetargetMatchesFresh checks.
func (c *Core) Retarget(cfg *config.Machine, stream trace.Stream) (bool, error) {
	if stream == nil {
		return false, errors.New("cpu: nil instruction stream")
	}
	if err := cfg.Validate(); err != nil {
		return false, err
	}
	if !sameShape(c.cfg, cfg) {
		return false, nil
	}
	c.sys.Reset()
	c.sys.SetL1DWriteThrough(cfg.L1D.WriteThrough)
	c.port.Retarget(cfg.Ports)
	c.cfg = cfg
	c.pred.Reset()
	c.reset(stream)
	return true, nil
}

// Cycle returns the current cycle.
func (c *Core) Cycle() uint64 { return c.cycle }

// ErrDeadline reports that a run exceeded its cycle budget, which indicates
// a model deadlock or a grossly underestimated deadline.
var ErrDeadline = errors.New("cpu: deadline exceeded; possible pipeline deadlock")

// ErrStall reports that the forward-progress watchdog fired: no instruction
// committed for Options.StallCycles consecutive cycles.
var ErrStall = errors.New("cpu: no forward progress")

// Run simulates until the stream ends or opts.MaxInstructions commit, then
// drains the pipeline and the store buffer, and returns the result. The
// loop steps every cycle; the deadline and the watchdog are checked before
// each one.
func (c *Core) Run(opts Options) (*Result, error) {
	c.maxInsts = opts.MaxInstructions
	c.rec = opts.Recorder
	c.port.SetRecorder(opts.Recorder)
	c.acct = opts.CPIStack
	c.lastBucket = cpustack.NumBuckets // invalid: the first classification always records
	lastProgress := c.cycle
	lastCommitted := c.committed
	idle := uint64(0) // cycles since the last commit
	var snap acctSnap
	for !c.drained() {
		if opts.DeadlineCycles > 0 && c.cycle > opts.DeadlineCycles {
			return nil, fmt.Errorf("%w (cycle %d, committed %d): %s",
				ErrDeadline, c.cycle, c.committed, c.StallDiagnosis())
		}
		if opts.StallCycles > 0 && idle > opts.StallCycles {
			return nil, fmt.Errorf("%w (no commit since cycle %d; now cycle %d, committed %d): %s",
				ErrStall, lastProgress, c.cycle, c.committed, c.StallDiagnosis())
		}
		if c.acct == nil {
			c.step()
		} else {
			c.acctBegin(&snap)
			c.step()
			c.acctStep(&snap)
		}
		idle++
		if c.committed != lastCommitted {
			lastCommitted = c.committed
			lastProgress = c.cycle
			idle = 0
		}
	}
	// Account the final store-buffer drain. The tail past the last stepped
	// cycle is pure store-buffer back-pressure: the pipeline is drained and
	// only buffered stores keep the clock running.
	if c.port.PendingStores() > 0 {
		last := c.port.DrainAll(c.cycle)
		if last > c.cycle {
			c.acct.Charge(cpustack.StoreBufferFull, last-c.cycle)
			c.cycle = last
		}
	}
	// The conservation law is the whole warrant for trusting a CPI stack;
	// verify it on every armed run, not just under test.
	if c.acct != nil {
		if got := c.acct.Total(); got != c.cycle {
			return nil, fmt.Errorf("cpu: cpi-stack conservation violated: buckets sum to %d over %d cycles", got, c.cycle)
		}
	}
	return c.result(), nil
}

// streamChunk is how many instructions a batched stream refill pulls.
const streamChunk = 128

// StreamChunk is streamChunk for consumers that pull streams the way the
// core does. A refill may read ahead of fetch, but fetch never asks for an
// instruction past the committed-instruction limit, so a replayed trace
// exactly as long as the budget is indistinguishable from an endless
// generator.
const StreamChunk = streamChunk

// streamNext delivers the next stream instruction through the chunk buffer.
//
//portlint:hotpath
func (c *Core) streamNext(in *isa.Inst) bool {
	if c.batchPos == c.batchLen {
		c.batchLen = c.stream.NextBatch(c.batchBuf)
		c.batchPos = 0
		if c.batchLen == 0 {
			return false
		}
	}
	*in = c.batchBuf[c.batchPos]
	c.batchPos++
	return true
}

// fbPush appends one instruction to the fetch-buffer ring. Callers must
// check fbCount < len(fetchBuf) first.
//
//portlint:hotpath
func (c *Core) fbPush(f fetchedInst) {
	i := c.fbHead + c.fbCount
	if n := len(c.fetchBuf); i >= n {
		i -= n
	}
	c.fetchBuf[i] = f
	c.fbCount++
}

// fbFront returns the oldest fetched instruction. Callers must check
// fbCount > 0 first.
//
//portlint:hotpath
func (c *Core) fbFront() *fetchedInst { return &c.fetchBuf[c.fbHead] }

// fbPop removes the oldest fetched instruction.
//
//portlint:hotpath
func (c *Core) fbPop() {
	c.fbHead++
	if c.fbHead == len(c.fetchBuf) {
		c.fbHead = 0
	}
	c.fbCount--
}

// drained reports that no work remains anywhere in the machine.
func (c *Core) drained() bool {
	if c.robCount > 0 || c.fbCount > 0 || c.havePending {
		return false
	}
	if c.limitReached() {
		return true
	}
	return c.streamDone
}

// limitReached gates fetch: once maxInsts instructions have been fetched,
// no more enter the pipeline, so exactly maxInsts commit.
func (c *Core) limitReached() bool {
	return c.maxInsts > 0 && c.seq >= c.maxInsts
}

// step advances one cycle. Stage order within a cycle follows the usual
// reverse-pipeline convention so that each stage sees the previous cycle's
// state of the stage in front of it.
//
//portlint:hotpath
func (c *Core) step() {
	c.port.BeginCycle(c.cycle)
	c.commit()
	c.complete()
	c.issue()
	c.dispatch()
	c.fetch()
	c.port.EndCycle(c.cycle)
	c.port.FinishCycle()
	c.cycle++
}

// resultCounters bounds the counters result writes besides the port's
// per-slot grant buckets: core, memory, per-class and fixed port counters.
const resultCounters = 26 + isa.NumClasses + 22

// result assembles the Result from the counters.
func (c *Core) result() *Result {
	s := stats.NewSetSize(resultCounters + core.SlotsPerCycle(c.cfg.Ports))
	s.Add(stats.Cycles, c.cycle)
	s.Add(stats.Instructions, c.committed)
	s.Add(stats.InstsUser, c.userInsts)
	s.Add(stats.InstsKernel, c.kernelInsts)
	s.Add(stats.Loads, c.loads)
	s.Add(stats.Stores, c.stores)
	s.Add(stats.Branches, c.branches)
	s.Add(stats.Mispredicts, c.mispredicts)
	s.Add(stats.StallFetchCycles, c.fetchStallCycles)
	s.Add(stats.StallROBFullCycles, c.robFullCycles)
	s.Add(stats.StallCommitStoreBuffer, c.commitStallSB)
	s.Add(stats.LSQForwards, c.lsqForwards)
	s.Add(stats.LSQViolations, c.memViolations)
	for cls := 0; cls < isa.NumClasses; cls++ {
		if c.classCount[cls] > 0 {
			s.Add(stats.ClassCounter(isa.Class(cls).String()), c.classCount[cls])
		}
	}
	s.Add(stats.L1DHits, c.sys.L1D.Hits())
	s.Add(stats.L1DMisses, c.sys.L1D.Misses())
	s.Add(stats.L1DWritebacks, c.sys.L1D.Writebacks())
	s.Add(stats.FetchWrongPathLines, c.wrongPathLines)
	s.Add(stats.L1IHits, c.sys.L1I.Hits())
	s.Add(stats.L1IMisses, c.sys.L1I.Misses())
	s.Add(stats.L2Hits, c.sys.L2.Hits())
	s.Add(stats.L2Misses, c.sys.L2.Misses())
	s.Add(stats.DRAMAccesses, c.sys.DRAMAccesses())
	s.Add(stats.ITLBHits, c.sys.ITLB.Hits())
	s.Add(stats.ITLBMisses, c.sys.ITLB.Misses())
	s.Add(stats.DTLBHits, c.sys.DTLB.Hits())
	s.Add(stats.DTLBMisses, c.sys.DTLB.Misses())
	c.port.Report(s)
	ipc := 0.0
	if c.cycle > 0 {
		ipc = float64(c.committed) / float64(c.cycle)
	}
	return &Result{
		Cycles:       c.cycle,
		Instructions: c.committed,
		UserInsts:    c.userInsts,
		KernelInsts:  c.kernelInsts,
		Loads:        c.loads,
		Stores:       c.stores,
		Branches:     c.branches,
		Mispredicts:  c.mispredicts,
		IPC:          ipc,
		Counters:     s,
		CPIStack:     c.acct.Snapshot(),
	}
}

// robIndex converts a ring offset from head into a slice index. The offset
// is always below robCount <= len(rob), so a single conditional subtract
// replaces the much costlier modulo on this per-cycle-per-entry path.
//
//portlint:hotpath
func (c *Core) robIndex(off int) int {
	i := c.robHead + off
	if n := len(c.rob); i >= n {
		i -= n
	}
	return i
}

// commit retires up to CommitWidth completed instructions in program order.
//
//portlint:hotpath
func (c *Core) commit() {
	width := c.cfg.Core.CommitWidth
	for n := 0; n < width && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if e.state != stateDone || e.doneAt > c.cycle {
			return
		}
		if e.inst.Class == isa.Store {
			if !c.port.TryCommitStore(c.cycle, e.inst.Addr, int(e.inst.Size)) {
				c.commitStallSB++
				if c.rec != nil {
					c.rec.Record(c.cycle, diag.EventStall, e.seq, e.inst.Addr)
				}
				return
			}
		}
		c.retire(e)
		if c.robHead++; c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
	}
}

// retire finalises one instruction: trains the predictor in program order,
// releases the previous physical mapping, releases fetch stalls owned by
// serialising instructions, and updates counters.
//
//portlint:hotpath
func (c *Core) retire(e *robEntry) {
	if e.seq <= c.lastCommitSeq {
		panic(fmt.Sprintf("cpu: commit out of order: seq %d after %d", e.seq, c.lastCommitSeq))
	}
	c.lastCommitSeq = e.seq
	if c.rec != nil {
		c.rec.Record(c.cycle, diag.EventCommit, e.seq, e.inst.PC)
	}
	in := &e.inst
	if e.prevPhys >= 0 {
		if in.Dest.IsFP() {
			c.fpFree = append(c.fpFree, e.prevPhys) //portlint:ignore hotpath free-list capacity is FPPhysRegs, fixed at construction; the renamer's conservation law keeps len <= cap
		} else {
			c.intFree = append(c.intFree, e.prevPhys) //portlint:ignore hotpath free-list capacity is IntPhysRegs, fixed at construction; the renamer's conservation law keeps len <= cap
		}
	}
	if e.mispredicted {
		c.mispredicts++
	}
	switch in.Class {
	case isa.Load:
		c.lqCount--
	case isa.Store:
		c.sqCount--
		c.sqHead++ // in-order commit: the head store is the ring's oldest
	}
	if e.serialize && c.stallSeq == e.seq {
		// Syscall: fetch resumes after the drain plus the redirect
		// bubble.
		c.stallSeq = 0
		c.fetchBlockedTil = c.cycle + uint64(c.cfg.Core.MispredictPenalty)
	}
	c.committed++
	c.classCount[in.Class]++
	if in.Kernel {
		c.kernelInsts++
	} else {
		c.userInsts++
	}
	switch in.Class {
	case isa.Load:
		c.loads++
	case isa.Store:
		c.stores++
	case isa.Branch:
		c.branches++
	}
}

// complete promotes issued entries whose completion time has arrived.
//
// The scan is skipped outright when the bookkeeping proves no entry can
// transition this cycle: nothing is issued, or every issued entry's
// completion lies later than now (nextDoneAt; an address-issued store
// whose completion is still unknown carries doneAt == never and is
// finalised by its data producer's publish, not here). When the scan does
// run, it walks only issList — the entries actually in stateIssued — and
// every transition it performs is independent of the others (ready times
// are published at issue, not completion), so the list's unordered visit
// is equivalent to the ROB-ordered walk it replaces.
//
//portlint:hotpath
func (c *Core) complete() {
	if c.issCount == 0 || c.nextDoneAt > c.cycle {
		return
	}
	next := uint64(never)
	w := 0
	for k := 0; k < c.issCount; k++ {
		idx := c.issList[k]
		e := &c.rob[idx]
		if e.doneAt <= c.cycle {
			e.state = stateDone
			if e.mispredicted && c.stallSeq == e.seq && !e.serialize {
				// Misprediction resolved: redirect fetch.
				c.stallSeq = 0
				c.fetchBlockedTil = e.doneAt + uint64(c.cfg.Core.MispredictPenalty)
			}
			continue // promoted: leaves the worklist
		}
		if e.doneAt < next {
			next = e.doneAt
		}
		c.issList[w] = idx
		w++
	}
	c.issCount = w
	c.nextDoneAt = next
}

// noteIssued records that the entry at ROB slice index idx entered
// stateIssued with completion time doneAt (possibly never, for an
// address-issued store awaiting its data producer), keeping complete's
// worklist and its nextDoneAt bound exact.
//
//portlint:hotpath
func (c *Core) noteIssued(idx int32, doneAt uint64) {
	if doneAt == never {
		// Address-issued store awaiting its data producer: it cannot
		// complete until the publish finalises doneAt, and setDestReady
		// files it on the worklist at that moment. Listing it now would
		// only pad every complete() walk in between.
		return
	}
	c.issList[c.issCount] = idx
	c.issCount++
	if doneAt < c.nextDoneAt {
		c.nextDoneAt = doneAt
	}
}
