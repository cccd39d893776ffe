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
	"math/bits"

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

// entryState tracks an instruction's progress through the backend.
type entryState uint8

const (
	stateDispatched entryState = iota
	stateIssued                // execution scheduled; completes at doneAt
	stateDone                  // result available
)

// robEntry is one in-flight instruction, 128 bytes. The fields every issue
// visit reads (readiness cache, class, dispatch cycle) share its first 64
// bytes, so a visit that stops at the readiness, attempt-time or unit
// check touches one cache line.
type robEntry struct {
	// readyCache memoises the entry's operand-readiness (both operands,
	// or the address operand alone for stores) so the per-cycle issue
	// scans compare one cached word instead of re-reading the ready
	// files. The cache is valid while readyGen matches Core.readyGen: a
	// finite value is final until a memory-order squash bumps the global
	// generation, and a cached never is parked on the blocking register's
	// waiter list, whose pop (at publish, in wakeWaiters) recomputes it.
	readyCache uint64
	readyGen   uint64

	inst isa.Inst

	// dispatchedAt anchors address-generation timing for operand-free
	// memory operations.
	dispatchedAt uint64

	doneAt uint64 // completion cycle (valid once issued)
	state  entryState

	// onWaitList records that the entry is linked on a register waiter
	// list (see Core.waiter) through waitNext; -1 terminates the list.
	onWaitList bool

	// Control flow.
	mispredicted bool // fetch stalled on this instruction until resolution
	serialize    bool // syscall: fetch resumes only after commit

	waitNext int32

	// Renaming.
	destPhys, prevPhys int16 // -1 when the instruction has no destination
	src1Phys, src2Phys int16 // -1 when no dependence

	seq uint64

	// Memory ordering (loads/stores only).
	addrReadyAt uint64 // cycle the effective address is known
	sqMark      uint64 // store-ring tail at dispatch; a load's older stores live in [sqHead, sqMark)

	// A load's cached disambiguation verdict (lsqVerdict), taken by a
	// walk over its older in-flight stores at store generation lsqGen.
	// A stall or cover verdict also keeps the deciding store's ring
	// position, lsqPos. The verdict holds while lsqGen equals Core.sqGen
	// and, unless it is clean, while that store has not committed
	// (lsqPos >= sqHead): a store issuing is the only event that changes
	// what the walk finds before its deciding store, and stores commit in
	// order, so none between the deciding store and the load can leave
	// first. Zero (the dispatch state) never matches: sqGen starts at one
	// and counts up.
	lsqGen     uint64
	lsqPos     uint64
	lsqVerdict lsqVerdict
}

// lsqVerdict is the outcome of a load's walk over its older in-flight
// stores.
type lsqVerdict uint8

const (
	lsqClean lsqVerdict = iota // no older store overlaps (nor, without speculation, is unresolved)
	lsqStall                   // wait: an unresolved older store, or a partial overlap
	lsqCover                   // forward from the store at lsqPos, which covers the load
)

// sqEntry is one store-ring slot: the store's ROB slice index and the copy
// of its address, size and issue state that a load's disambiguation walk
// reads.
type sqEntry struct {
	addr   uint64
	idx    int32
	size   uint8
	issued bool // the address is known
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

	// The instruction stream: fetch pulls instructions through batchBuf in
	// streamChunk-sized refills, one dynamic dispatch per chunk instead of
	// one per instruction. The generators' output is independent of when
	// they are called, so pulling ahead of the pipeline changes nothing the
	// core observes.
	stream             trace.Stream
	batchBuf           []isa.Inst
	batchPos, batchLen int

	// Reorder buffer as a ring.
	rob       []robEntry
	robHead   int
	robCount  int
	committed uint64
	maxInsts  uint64

	// The issue and completion schedulers (DESIGN.md "The two-tier issue
	// scheduler"), each a bitset over ROB slice indices. live (non-stores)
	// and liveStores (stores, which issue on address availability alone in
	// a second pass) hold the dispatched entries that can attempt issue
	// now; issue() scans them in ring order from robHead, which is program
	// order. wake files each entry whose attempt time (operand readiness
	// mapped through address generation or a busy unpipelined unit) is a
	// known future cycle; drainWake routes a slot's entries when the clock
	// reaches it. Entries blocked on an unscheduled producer sit on that
	// register's waiter list (waiter) and rejoin through the publish in
	// setDestReady. done files each issued entry with a known
	// completion time, and complete() promotes a slot's entries when the
	// clock reaches it; an address-issued store whose data producer is
	// unscheduled (doneAt == never) stays off it until the producer's
	// publish finalises its doneAt (setDestReady). lsqWait parks the loads
	// whose cached disambiguation verdict is a stall until a store issues
	// or commits (wakeLSQ), the only events that can end one. All five are
	// allocated with the core (newSched).
	live, liveStores, lsqWait slotSet
	wake, done                wheel

	// Store-queue ring: every store between dispatch and commit, in
	// program order. sqHead/sqTail are monotone positions (occupancy
	// sqTail-sqHead); the backing array is a power of two so
	// position-to-slot is a mask. A store's position is its sqMark.
	// lsqWalk walks a load's [sqHead, sqMark) backward — exactly the older
	// in-flight stores — reading only the ring.
	sqRing         []sqEntry
	sqHead, sqTail uint64

	// sqGen is the store-resolution generation backing robEntry.lsqGen
	// (bumped by issueStore, the only event that can change what a load's
	// walk finds before its deciding store). Starts at one so a zeroed
	// cache never hits.
	sqGen uint64

	// Physical registers, integer and floating-point in one index space:
	// the integer file is [0, IntPhysRegs) and the floating-point file
	// follows it. ready holds each register's ready cycle and regMap each
	// architectural register's current mapping; the free lists stay per
	// file.
	ready           []uint64
	intFree, fpFree []int16
	regMap          [isa.NumArchRegs]int16

	// waiter holds, for each unpublished physical register, the dispatched
	// entries whose readiness cache is parked at never waiting on it,
	// singly linked through robEntry.waitNext (-1 terminates). The publish
	// (setDestReady) pops the list and recomputes exactly those caches —
	// that is what makes a cached never trustworthy between publishes.
	waiter []int32

	// Per-class rows (classTable) and the machine's queue and unit sizes,
	// derived from the configuration in reset.
	classes [isa.NumClasses]classInfo
	qCap    [numQueues]int
	unitCap [numUnits]int

	// Queue occupancy (entries are tracked in the ROB itself; these
	// counters model the finite structures). qNone counts the in-flight
	// Nops and Syscalls, which hold no queue.
	qCount [numQueues]int

	// unitFreeAt is when each unpipelined unit takes its next instruction
	// (zero for pipelined units).
	unitFreeAt [numUnits]uint64

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

	// Statistics. Loads, stores, branches and user instructions are
	// derived from classCount and kernelInsts in result.
	mispredicts                     uint64
	memViolations                   uint64
	lsqForwards                     uint64
	kernelInsts                     uint64
	fetchStallCycles, robFullCycles uint64
	commitStallSB                   uint64
	classCount                      [isa.NumClasses]uint64

	// work holds the deterministic work counters the portsimcount build
	// tag compiles in (count_on.go); otherwise it is empty.
	work workCounts
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
	physRegs := cfg.Core.IntPhysRegs + cfg.Core.FPPhysRegs
	if physRegs > math.MaxInt16+1 {
		return nil, fmt.Errorf("cpu: %d physical registers exceed the renamer's %d", physRegs, math.MaxInt16+1)
	}
	c := &Core{
		cfg:      cfg,
		sys:      sys,
		port:     core.NewMemPort(cfg.Ports, sys),
		pred:     pred,
		batchBuf: make([]isa.Inst, streamChunk),
		rob:      make([]robEntry, cfg.Core.ROBEntries),
		sqRing:   make([]sqEntry, pow2AtLeast(cfg.Core.StoreQueueEntries)),
		fetchBuf: make([]fetchedInst, 4*cfg.Core.FetchWidth),
		ready:    make([]uint64, physRegs),
		intFree:  make([]int16, 0, cfg.Core.IntPhysRegs),
		fpFree:   make([]int16, 0, cfg.Core.FPPhysRegs),
		waiter:   make([]int32, physRegs),
	}
	c.live, c.liveStores, c.lsqWait, c.wake, c.done = newSched(cfg.Core.ROBEntries)
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
		stream:       stream,
		batchBuf:     c.batchBuf,
		rob:          c.rob,
		live:         c.live,
		liveStores:   c.liveStores,
		lsqWait:      c.lsqWait,
		wake:         c.wake,
		done:         c.done,
		sqRing:       c.sqRing,
		sqGen:        1,
		classes:      classTable(&c.cfg.Lat),
		qCap:         queueCaps(&c.cfg.Core),
		unitCap:      unitCaps(&c.cfg.Core),
		ready:        c.ready,
		intFree:      c.intFree[:0],
		fpFree:       c.fpFree[:0],
		waiter:       c.waiter,
		fetchBuf:     c.fetchBuf,
		curFetchLine: ^uint64(0),
		lastBucket:   cpustack.NumBuckets,
	}
	clear(c.rob)
	clear(c.live)
	clear(c.liveStores)
	clear(c.lsqWait)
	clear(c.wake.bits)
	clear(c.done.bits)
	clear(c.ready)
	clear(c.fetchBuf)
	for i := range c.waiter {
		c.waiter[i] = -1
	}
	// Architectural registers map to the first 32 physical registers of
	// their file initially; the rest are free.
	fpBase := c.cfg.Core.IntPhysRegs
	for i := 0; i < 32; i++ {
		c.regMap[i] = int16(i)
		c.regMap[isa.FPBase+isa.Reg(i)] = int16(fpBase + i)
	}
	for i := 32; i < fpBase; i++ {
		c.intFree = append(c.intFree, int16(i))
	}
	for i := fpBase + 32; i < len(c.ready); i++ {
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
	if c.robCount > 0 || c.fbCount > 0 {
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
	// Every committed instruction is a user or a kernel one.
	users := c.committed
	if c.kernelInsts <= c.committed {
		users = c.committed - c.kernelInsts
	}
	s := stats.NewSetSize(resultCounters + core.SlotsPerCycle(c.cfg.Ports))
	s.Add(stats.Cycles, c.cycle)
	s.Add(stats.Instructions, c.committed)
	s.Add(stats.InstsUser, users)
	s.Add(stats.InstsKernel, c.kernelInsts)
	s.Add(stats.Loads, c.classCount[isa.Load])
	s.Add(stats.Stores, c.classCount[isa.Store])
	s.Add(stats.Branches, c.classCount[isa.Branch])
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
		UserInsts:    users,
		KernelInsts:  c.kernelInsts,
		Loads:        c.classCount[isa.Load],
		Stores:       c.classCount[isa.Store],
		Branches:     c.classCount[isa.Branch],
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

// commit retires up to CommitWidth completed instructions in program
// order. Retiring one releases its previous physical mapping, its
// load/store-queue slot and any fetch stall a serialising instruction
// owns, and updates the counters.
//
//portlint:hotpath
func (c *Core) commit() {
	width := c.cfg.Core.CommitWidth
	for n := 0; n < width && c.robCount > 0; n++ {
		e := &c.rob[c.robHead]
		if e.state != stateDone || e.doneAt > c.cycle {
			return
		}
		in := &e.inst
		if in.Class == isa.Store {
			if !c.port.TryCommitStore(c.cycle, in.Addr, int(in.Size)) {
				c.commitStallSB++
				if c.rec != nil {
					c.rec.Record(c.cycle, diag.EventStall, e.seq, in.Addr)
				}
				return
			}
		}
		if e.seq <= c.lastCommitSeq {
			panic(fmt.Sprintf("cpu: commit out of order: seq %d after %d", e.seq, c.lastCommitSeq))
		}
		c.lastCommitSeq = e.seq
		if c.rec != nil {
			c.rec.Record(c.cycle, diag.EventCommit, e.seq, in.PC)
		}
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
		if ci := &c.classes[in.Class]; ci.freeAtCommit {
			c.qCount[ci.occupy]--
			if ci.occupy == qStore {
				c.sqHead++ // in-order commit: the head store is the ring's oldest
				c.wakeLSQ()
			}
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
		}
		if c.robHead++; c.robHead == len(c.rob) {
			c.robHead = 0
		}
		c.robCount--
	}
}

// complete promotes the issued entries whose completion time has arrived:
// the done wheel's slot for this cycle. An entry filed early (its doneAt lay
// past the wheel's horizon) is re-filed instead. Every promotion is
// independent of the others (ready times are published at issue, not
// completion), so the slot's order does not matter.
//
//portlint:hotpath
func (c *Core) complete() {
	s := c.done.slot(c.cycle)
	for k, w := range s {
		if w == 0 {
			continue
		}
		s[k] = 0
		for ; w != 0; w &= w - 1 {
			idx := int32(k<<6 + bits.TrailingZeros64(w))
			e := &c.rob[idx]
			if e.doneAt > c.cycle {
				c.fileDone(e.doneAt, idx)
				continue
			}
			e.state = stateDone
			if e.mispredicted && c.stallSeq == e.seq && !e.serialize {
				// Misprediction resolved: redirect fetch.
				c.stallSeq = 0
				c.fetchBlockedTil = e.doneAt + uint64(c.cfg.Core.MispredictPenalty)
			}
		}
	}
}

// fileDone files the issued entry at ROB slice index idx on the done wheel
// for its completion time at, which must be finite. A time that has
// already passed is filed for the next cycle, the first complete() still
// to run; one past the wheel's horizon is filed at its last slot.
//
//portlint:hotpath
func (c *Core) fileDone(at uint64, idx int32) {
	if at <= c.cycle {
		at = c.cycle + 1
	} else if at >= c.cycle+wheelSlots {
		at = c.cycle + wheelSlots - 1
	}
	c.done.file(at, idx)
}
