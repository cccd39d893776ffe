package cpu

import (
	"fmt"
	"math/bits"
	"testing"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/workload"
)

// worklistAudit holds per-slot membership counts for one full scan.
type worklistAudit struct {
	live, wake, done, wait []int
	lsq                    []int
	wakeAt, doneAt         []uint64
	waitPhys               []int16
}

// scanReadyAt recomputes an entry's operand readiness from the ready files,
// ignoring its cache: the address operand for stores, both operands
// otherwise.
func (c *Core) scanReadyAt(e *robEntry) uint64 {
	if e.inst.Class == isa.Store {
		return c.srcReadyAt(e.src1Phys)
	}
	return max(c.srcReadyAt(e.src1Phys), c.srcReadyAt(e.src2Phys))
}

// occupied reports whether ROB slice index idx holds an in-flight entry.
func (c *Core) occupied(idx int32) bool {
	if idx < 0 || int(idx) >= len(c.rob) {
		return false
	}
	off := int(idx) - c.robHead
	if off < 0 {
		off += len(c.rob)
	}
	return off < c.robCount
}

// setSlots lists the slots a slotSet holds, in index order.
func setSlots(s slotSet) []int32 {
	var out []int32
	for k, w := range s {
		for ; w != 0; w &= w - 1 {
			out = append(out, int32(k*64+bits.TrailingZeros64(w)))
		}
	}
	return out
}

// wheelTime is the cycle a wheel slot stands for once the core has stepped
// to cycle now: slot now&(wheelSlots-1) is the next one drained, and the
// others follow it.
func wheelTime(now uint64, slot int) uint64 {
	return now + (uint64(slot)-now)&(wheelSlots-1)
}

// check compares the issue and completion schedulers with a full scan of
// the ROB. Every dispatched entry must have exactly one of a live bit, a
// wake-wheel bit no later than its attempt time recomputed from the ready
// files, a waiter-list link to an unscheduled producer, or an LSQ-wait bit
// backed by a standing stall verdict. No bit may name
// a free slot or an entry in the wrong state. Every issued entry with a
// finite completion time must have exactly one done-wheel bit, no later
// than that time (or the next cycle, when it has passed); one whose
// completion is unknown must be a store waiting on its data producer.
func (a *worklistAudit) check(c *Core) error {
	n := len(c.rob)
	if a.live == nil {
		a.live, a.wake, a.done, a.wait = make([]int, n), make([]int, n), make([]int, n), make([]int, n)
		a.lsq = make([]int, n)
		a.wakeAt, a.doneAt, a.waitPhys = make([]uint64, n), make([]uint64, n), make([]int16, n)
	}
	clear(a.live)
	clear(a.wake)
	clear(a.done)
	clear(a.wait)
	clear(a.lsq)

	for _, idx := range setSlots(c.lsqWait) {
		if !c.occupied(idx) {
			return fmt.Errorf("LSQ wait set holds free slot %d", idx)
		}
		e := &c.rob[idx]
		if e.state != stateDispatched || e.inst.Class != isa.Load || !c.lsqCached(e) || e.lsqVerdict != lsqStall {
			return fmt.Errorf("LSQ wait set holds seq %d (%v), which has no standing stall verdict", e.seq, e.inst.Class)
		}
		a.lsq[idx]++
	}
	for _, l := range []struct {
		set    slotSet
		stores bool
	}{{c.live, false}, {c.liveStores, true}} {
		for _, idx := range setSlots(l.set) {
			if !c.occupied(idx) {
				return fmt.Errorf("live set holds free slot %d", idx)
			}
			e := &c.rob[idx]
			if e.state != stateDispatched {
				return fmt.Errorf("live set holds seq %d, which left dispatch", e.seq)
			}
			if (e.inst.Class == isa.Store) != l.stores {
				return fmt.Errorf("seq %d (%v) in the wrong live set", e.seq, e.inst.Class)
			}
			a.live[idx]++
		}
	}
	for slot := 0; slot < wheelSlots; slot++ {
		t := wheelTime(c.cycle, slot)
		for _, idx := range setSlots(c.wake.slot(t)) {
			if !c.occupied(idx) {
				return fmt.Errorf("wake wheel holds free slot %d at cycle %d", idx, t)
			}
			if e := &c.rob[idx]; e.state != stateDispatched {
				return fmt.Errorf("wake wheel holds seq %d, which left dispatch", e.seq)
			}
			a.wake[idx]++
			a.wakeAt[idx] = t
		}
		for _, idx := range setSlots(c.done.slot(t)) {
			if !c.occupied(idx) {
				return fmt.Errorf("done wheel holds free slot %d at cycle %d", idx, t)
			}
			if e := &c.rob[idx]; e.state != stateIssued || e.doneAt == never {
				return fmt.Errorf("done wheel holds seq %d in state %d with doneAt %d", e.seq, e.state, e.doneAt)
			}
			a.done[idx]++
			a.doneAt[idx] = t
		}
	}
	for p, idx := range c.waiter {
		for steps := 0; idx != -1; steps++ {
			if steps > n || !c.occupied(idx) {
				return fmt.Errorf("waiter list of phys %d reaches slot %d", p, idx)
			}
			if c.ready[p] != never {
				return fmt.Errorf("waiter list of phys %d survives its publish", p)
			}
			e := &c.rob[idx]
			a.wait[idx]++
			a.waitPhys[idx] = int16(p)
			idx = e.waitNext
		}
	}

	for off := 0; off < c.robCount; off++ {
		idx := c.robIndex(off)
		e := &c.rob[idx]
		if a.wait[idx] > 1 || e.onWaitList != (a.wait[idx] == 1) {
			return fmt.Errorf("seq %d: onWaitList is %v but the entry is on %d waiter lists", e.seq, e.onWaitList, a.wait[idx])
		}
		switch e.state {
		case stateDispatched:
			if k := a.live[idx] + a.wake[idx] + a.wait[idx] + a.lsq[idx]; k != 1 {
				return fmt.Errorf("dispatched seq %d (%v) sits in %d structures (live %d, wake %d, waiting %d, LSQ %d)",
					e.seq, e.inst.Class, k, a.live[idx], a.wake[idx], a.wait[idx], a.lsq[idx])
			}
			if a.wake[idx] == 1 {
				r := c.scanReadyAt(e)
				if r == never {
					return fmt.Errorf("seq %d is on the wake wheel but a producer is unscheduled", e.seq)
				}
				if at := c.attemptTime(e, r); a.wakeAt[idx] > at {
					return fmt.Errorf("seq %d wakes at %d, after its attempt time %d", e.seq, a.wakeAt[idx], at)
				}
			}
			if a.wait[idx] == 1 {
				p := a.waitPhys[idx]
				if p != e.src1Phys && (e.inst.Class == isa.Store || p != e.src2Phys) {
					return fmt.Errorf("seq %d waits on phys %d, which is none of its operands", e.seq, p)
				}
			}
		case stateIssued:
			if e.doneAt == never {
				if a.done[idx] != 0 || a.wait[idx] != 1 || e.inst.Class != isa.Store || e.src2Phys != a.waitPhys[idx] {
					return fmt.Errorf("issued seq %d has no completion time and is not a store waiting on its data", e.seq)
				}
				continue
			}
			if a.done[idx] != 1 {
				return fmt.Errorf("issued seq %d is filed %d times on the done wheel", e.seq, a.done[idx])
			}
			if a.doneAt[idx] > max(e.doneAt, c.cycle) {
				return fmt.Errorf("seq %d completes at %d but is filed for %d", e.seq, e.doneAt, a.doneAt[idx])
			}
			if a.wait[idx] != 0 {
				return fmt.Errorf("issued seq %d with a completion time still waits", e.seq)
			}
		}
	}
	return nil
}

// stepAudited runs insts instructions of workload w (seed 42) on machine m
// one cycle at a time, failing the test at the first cycle after which
// audit reports an error, and returns the drained core.
func stepAudited(t *testing.T, m config.Machine, w string, insts uint64, audit func(*Core) error) *Core {
	t.Helper()
	g, err := workload.New(mustProfile(t, w), 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	c.maxInsts = insts
	for !c.drained() {
		c.step()
		if err := audit(c); err != nil {
			t.Fatalf("after cycle %d: %v", c.cycle-1, err)
		}
	}
	if c.committed != insts {
		t.Fatalf("committed %d of %d", c.committed, insts)
	}
	return c
}

// speculativeMachine is the baseline with memory-dependence speculation.
func speculativeMachine() config.Machine {
	m := config.Baseline()
	m.Name = "mem-speculation"
	m.Core.SpeculativeLoads = true
	m.Core.ViolationPenalty = 8
	return m
}

// wideMachine is the baseline with a 100-entry ROB and a 24-entry store
// queue: its slot bitsets take two words, the second only partly used,
// and the ROB ring wraps at a slot that is not a word boundary.
func wideMachine() config.Machine {
	m := config.Baseline()
	m.Name = "rob-100"
	m.Core.ROBEntries = 100
	m.Core.StoreQueueEntries = 24
	return m
}

// farMemoryMachine is the baseline with a DRAM latency past the wheels'
// horizon, so attempt and completion times land beyond it and are filed
// early at the horizon.
func farMemoryMachine() config.Machine {
	m := config.Baseline()
	m.Name = "dram-400"
	m.Mem.DRAMLatency = 400
	return m
}

// TestIssueWorklistsMatchFullScan is the oracle for the issue and
// completion schedulers (DESIGN "The two-tier issue scheduler"): stepping
// one cycle at a time, every dispatched entry a full ROB scan finds must be
// reachable by the scheduler, and every issued one by complete(). The
// speculative-load machine adds the memory-order squash, which moves
// published ready times; the 100-entry ROB covers multi-word bitsets, and
// the 400-cycle DRAM times past the wheels' horizon.
func TestIssueWorklistsMatchFullScan(t *testing.T) {
	const insts = 30_000
	machines := []config.Machine{config.Baseline(), config.BestSingle(), speculativeMachine(), wideMachine(), farMemoryMachine()}
	for _, m := range machines {
		m := m
		for _, w := range []string{"compress", "database"} {
			t.Run(m.Name+"/"+w, func(t *testing.T) {
				var a worklistAudit
				c := stepAudited(t, m, w, insts, a.check)
				if m.Core.SpeculativeLoads && c.memViolations == 0 {
					t.Error("no memory-order squash: the speculative case tests nothing extra")
				}
			})
		}
	}
}

// lsqAudit re-walks, for every dispatched load whose cached disambiguation
// verdict issueLoad would use (lsqCached), the older in-flight stores in
// [sqHead, sqMark), oldest first and independently of lsqWalk, and requires
// the same verdict from the youngest store that decides. counts tallies the
// checked verdicts by kind, and skipped the clean ones cached past an
// unresolved store.
type lsqAudit struct {
	counts  [3]int
	skipped int
}

func (a *lsqAudit) check(c *Core) error {
	mask := uint64(len(c.sqRing) - 1)
	for off := 0; off < c.robCount; off++ {
		e := &c.rob[c.robIndex(off)]
		if e.inst.Class != isa.Load || e.state != stateDispatched || !c.lsqCached(e) {
			continue
		}
		addr, sz := e.inst.Addr, uint64(e.inst.Size)
		want, pos, unresolved := lsqClean, uint64(0), false
		for p := c.sqHead; p < e.sqMark; p++ {
			r := &c.sqRing[p&mask]
			s := &c.rob[r.idx]
			if r.addr != s.inst.Addr || r.size != s.inst.Size || r.issued != (s.state != stateDispatched) {
				return fmt.Errorf("store ring position %d disagrees with its store, seq %d", p, s.seq)
			}
			b, st := s.inst.Addr, uint64(s.inst.Size)
			switch {
			case s.state == stateDispatched && c.cfg.Core.SpeculativeLoads:
				unresolved = true
			case s.state == stateDispatched:
				want, pos = lsqStall, p
			case addr < b+st && b < addr+sz && b <= addr && addr+sz <= b+st:
				want, pos = lsqCover, p
			case addr < b+st && b < addr+sz:
				want, pos = lsqStall, p
			}
		}
		if e.lsqVerdict != want || (want != lsqClean && e.lsqPos != pos) {
			return fmt.Errorf("load seq %d [%#x,+%d) cached verdict %d at store %d, but the walk finds %d at store %d",
				e.seq, addr, sz, e.lsqVerdict, e.lsqPos, want, pos)
		}
		a.counts[want]++
		if want == lsqClean && unresolved {
			a.skipped++
		}
	}
	return nil
}

// TestLSQCleanVerdictMatchesWalk is the oracle for the LSQ's cached
// verdicts (robEntry.lsqVerdict): after every cycle, each verdict a
// waiting load would act on must equal a fresh walk over its older stores.
func TestLSQCleanVerdictMatchesWalk(t *testing.T) {
	const insts = 30_000
	for _, m := range []config.Machine{config.Baseline(), speculativeMachine()} {
		m := m
		for _, w := range []string{"compress", "database"} {
			t.Run(m.Name+"/"+w, func(t *testing.T) {
				var a lsqAudit
				stepAudited(t, m, w, insts, a.check)
				if a.counts[lsqClean] == 0 || a.counts[lsqStall] == 0 {
					t.Errorf("clean %d, stall %d verdicts checked: the oracle misses a kind", a.counts[lsqClean], a.counts[lsqStall])
				}
				if m.Core.SpeculativeLoads && a.skipped == 0 {
					t.Error("no clean verdict speculated past an unresolved store")
				}
				t.Logf("verdicts checked: %d clean (%d past an unresolved store), %d stall, %d cover",
					a.counts[lsqClean], a.skipped, a.counts[lsqStall], a.counts[lsqCover])
			})
		}
	}
}
