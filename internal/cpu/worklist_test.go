package cpu

import (
	"fmt"
	"testing"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/workload"
)

// worklistAudit holds per-slot membership counts for one full scan.
type worklistAudit struct {
	live, heap, wait []int
	heapAt           []uint64
	waitPhys         []int16
}

// scanReadyAt recomputes an entry's operand readiness from the ready files,
// ignoring its cache: the address operand for stores, both operands
// otherwise.
func (c *Core) scanReadyAt(e *robEntry) uint64 {
	if e.inst.Class == isa.Store {
		return c.srcReadyAt(e.inst.Src1, e.src1Phys)
	}
	return max(c.srcReadyAt(e.inst.Src1, e.src1Phys), c.srcReadyAt(e.inst.Src2, e.src2Phys))
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

// check compares the two-tier scheduler's worklists with a full scan of
// the ROB. Every dispatched entry must be on a live list, in the wake heap
// no later than its attempt time recomputed from the ready files, or on
// the waiter list of an unscheduled producer; no entry may sit in two of
// them; and each entry's inLive/inHeap/onWaitList flag must match its
// actual membership.
func (a *worklistAudit) check(c *Core) error {
	n := len(c.rob)
	if a.live == nil {
		a.live, a.heap, a.wait = make([]int, n), make([]int, n), make([]int, n)
		a.heapAt, a.waitPhys = make([]uint64, n), make([]int16, n)
	}
	clear(a.live)
	clear(a.heap)
	clear(a.wait)

	for _, l := range []struct {
		list   []int32
		stores bool
	}{{c.liveList[:c.liveCount], false}, {c.liveStores[:c.liveStoreCount], true}} {
		var prev uint64
		for k, idx := range l.list {
			if !c.occupied(idx) {
				return fmt.Errorf("live list holds free slot %d", idx)
			}
			e := &c.rob[idx]
			if (e.inst.Class == isa.Store) != l.stores {
				return fmt.Errorf("seq %d (%v) on the wrong live list", e.seq, e.inst.Class)
			}
			if k > 0 && e.seq <= prev {
				return fmt.Errorf("live list out of program order: seq %d after %d", e.seq, prev)
			}
			prev = e.seq
			a.live[idx]++
		}
	}
	for k, w := range c.wakeHeap {
		if !c.occupied(w.idx) {
			return fmt.Errorf("wake heap holds free slot %d", w.idx)
		}
		if k > 0 && c.wakeHeap[(k-1)/2].at > w.at {
			return fmt.Errorf("wake heap order broken at %d", k)
		}
		a.heap[w.idx]++
		a.heapAt[w.idx] = w.at
	}
	for _, f := range []struct {
		ready  []uint64
		waiter []int32
		fp     bool
	}{{c.intReady, c.intWaiter, false}, {c.fpReady, c.fpWaiter, true}} {
		for p, idx := range f.waiter {
			for steps := 0; idx != -1; steps++ {
				if steps > n || !c.occupied(idx) {
					return fmt.Errorf("waiter list of phys %d (fp %v) reaches slot %d", p, f.fp, idx)
				}
				if f.ready[p] != never {
					return fmt.Errorf("waiter list of phys %d (fp %v) survives its publish", p, f.fp)
				}
				e := &c.rob[idx]
				a.wait[idx]++
				a.waitPhys[idx] = int16(p)
				idx = e.waitNext
			}
		}
	}

	for off := 0; off < c.robCount; off++ {
		idx := c.robIndex(off)
		e := &c.rob[idx]
		for _, m := range []struct {
			name  string
			flag  bool
			count int
		}{{"inLive", e.inLive, a.live[idx]}, {"inHeap", e.inHeap, a.heap[idx]}, {"onWaitList", e.onWaitList, a.wait[idx]}} {
			if m.count > 1 || m.flag != (m.count == 1) {
				return fmt.Errorf("seq %d: %s is %v but the entry is listed %d times", e.seq, m.name, m.flag, m.count)
			}
		}
		if a.live[idx]+a.heap[idx]+a.wait[idx] > 1 {
			return fmt.Errorf("seq %d sits in more than one structure (live %d, heap %d, waiting %d)",
				e.seq, a.live[idx], a.heap[idx], a.wait[idx])
		}
		if e.state != stateDispatched {
			if e.inLive || e.inHeap {
				return fmt.Errorf("seq %d left dispatch but stays on a worklist", e.seq)
			}
			if e.onWaitList && (e.inst.Class != isa.Store || e.doneAt != never || e.src2Phys != a.waitPhys[idx]) {
				return fmt.Errorf("issued seq %d waits on phys %d, not on its store data", e.seq, a.waitPhys[idx])
			}
			continue
		}
		if e.inLive {
			continue
		}
		if e.inHeap {
			if r := c.scanReadyAt(e); r != never {
				if at := c.attemptTime(e, r); a.heapAt[idx] > at {
					return fmt.Errorf("seq %d wakes at %d, after its attempt time %d", e.seq, a.heapAt[idx], at)
				}
				continue
			}
		}
		if e.onWaitList {
			p := a.waitPhys[idx]
			if p != e.src1Phys && (e.inst.Class == isa.Store || p != e.src2Phys) {
				return fmt.Errorf("seq %d waits on phys %d, which is none of its operands", e.seq, p)
			}
			continue
		}
		return fmt.Errorf("dispatched seq %d (%v) is on no worklist the scheduler reaches", e.seq, e.inst.Class)
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

// TestIssueWorklistsMatchFullScan is the oracle for the two-tier issue
// scheduler (DESIGN "The two-tier issue scheduler"): stepping one cycle at
// a time, every dispatched entry a full ROB scan finds must be reachable
// by the scheduler, with membership flags that match the lists. The
// speculative-load machine adds the memory-order squash, which moves
// published ready times.
func TestIssueWorklistsMatchFullScan(t *testing.T) {
	const insts = 30_000
	for _, m := range []config.Machine{config.Baseline(), config.BestSingle(), speculativeMachine()} {
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

// lsqAudit re-walks, for every dispatched load whose clean disambiguation
// verdict is cached (lsqCleanGen == sqGen), the older in-flight stores in
// [sqHead, sqMark): no issued one may overlap the load, and without
// speculation none may still be unresolved. cached counts the loads it
// checked, and skipped those among them cached clean past an unresolved
// store.
type lsqAudit struct {
	cached, skipped int
}

func (a *lsqAudit) check(c *Core) error {
	mask := uint64(len(c.sqRing) - 1)
	for off := 0; off < c.robCount; off++ {
		e := &c.rob[c.robIndex(off)]
		if e.inst.Class != isa.Load || e.state != stateDispatched || e.lsqCleanGen != c.sqGen {
			continue
		}
		a.cached++
		addr, sz := e.inst.Addr, uint64(e.inst.Size)
		unresolved := false
		for p := c.sqHead; p < e.sqMark; p++ {
			s := &c.rob[c.sqRing[p&mask]]
			if s.state == stateDispatched {
				if !c.cfg.Core.SpeculativeLoads {
					return fmt.Errorf("load seq %d cached clean behind unresolved store seq %d", e.seq, s.seq)
				}
				unresolved = true
				continue
			}
			if b, st := s.inst.Addr, uint64(s.inst.Size); addr < b+st && b < addr+sz {
				return fmt.Errorf("load seq %d [%#x,+%d) cached clean but issued store seq %d [%#x,+%d) overlaps it",
					e.seq, addr, sz, s.seq, b, st)
			}
		}
		if unresolved {
			a.skipped++
		}
	}
	return nil
}

// TestLSQCleanVerdictMatchesWalk is the oracle for the LSQ's cached clean
// verdict (robEntry.lsqCleanGen): after every cycle, each load it lets skip
// the store-queue walk must still be clean by that walk.
func TestLSQCleanVerdictMatchesWalk(t *testing.T) {
	const insts = 30_000
	for _, m := range []config.Machine{config.Baseline(), speculativeMachine()} {
		m := m
		for _, w := range []string{"compress", "database"} {
			t.Run(m.Name+"/"+w, func(t *testing.T) {
				var a lsqAudit
				stepAudited(t, m, w, insts, a.check)
				if a.cached == 0 {
					t.Error("no load waited with a cached clean verdict: the oracle checked nothing")
				}
				if m.Core.SpeculativeLoads && a.skipped == 0 {
					t.Error("no clean verdict speculated past an unresolved store")
				}
				t.Logf("%d cached verdicts checked, %d past an unresolved store", a.cached, a.skipped)
			})
		}
	}
}
