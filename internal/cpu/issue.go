package cpu

import (
	"portsim/internal/diag"
	"portsim/internal/isa"
)

// dispatch renames and inserts up to DecodeWidth instructions from the
// fetch buffer into the reorder buffer and issue bookkeeping. It stalls on
// any exhausted resource: ROB slots, physical registers, issue-queue or
// load/store-queue occupancy.
//
//portlint:hotpath
func (c *Core) dispatch() {
	for n := 0; n < c.cfg.Core.DecodeWidth && c.fbCount > 0; n++ {
		if c.robCount == len(c.rob) {
			c.robFullCycles++
			return
		}
		f := c.fbFront()
		in := &f.inst
		if !c.dispatchGatesOK(in) {
			return
		}

		idx := c.robIndex(c.robCount)
		e := &c.rob[idx]
		// ROB slots are reused, so every robEntry field must be (re)written
		// here — field-by-field rather than via a composite literal, which
		// would construct and copy a temporary on the hottest path.
		e.inst = *in
		e.seq = f.seq
		e.state = stateDispatched
		e.doneAt = never
		e.destPhys = -1
		e.prevPhys = -1
		e.src1Phys = c.renameSrc(in.Src1)
		e.src2Phys = c.renameSrc(in.Src2)
		e.addrReadyAt = 0
		e.sqMark = 0
		e.dispatchedAt = c.cycle
		e.readyCache = never
		e.readyGen = staleGen
		e.waitNext = -1
		e.onWaitList = false
		e.inLive = false
		e.inHeap = false
		e.lsqCleanGen = 0
		e.mispredicted = f.mispredicted
		e.serialize = f.serialize
		if in.Dest != isa.RegZero {
			e.destPhys, e.prevPhys = c.allocDest(in.Dest)
		}
		switch {
		case in.Class == isa.Load:
			c.lqCount++
			e.sqMark = c.sqTail
		case in.Class == isa.Store:
			c.sqCount++
			c.sqRing[c.sqTail&uint64(len(c.sqRing)-1)] = int32(idx)
			c.sqTail++
		case in.Class.IsFPOp():
			c.fpQCount++
		case in.Class == isa.Nop || in.Class == isa.Syscall:
			// No functional unit: completes immediately. Syscall
			// ordering comes from in-order commit plus the fetch
			// stall it already owns.
			e.state = stateIssued
			e.doneAt = c.cycle + 1
			c.noteIssued(int32(idx), e.doneAt)
		default:
			c.intQCount++
		}
		if e.state == stateDispatched {
			c.route(e, int32(idx))
		}
		c.robCount++
		c.fbPop()
	}
}

// dispatchGatesOK reports whether an instruction at the front of the fetch
// buffer clears dispatch's resource gates this cycle: issue-queue or
// load/store-queue occupancy and destination-register availability.
//
//portlint:hotpath
func (c *Core) dispatchGatesOK(in *isa.Inst) bool {
	switch {
	case in.Class == isa.Load:
		if c.lqCount >= c.cfg.Core.LoadQueueEntries {
			return false
		}
	case in.Class == isa.Store:
		if c.sqCount >= c.cfg.Core.StoreQueueEntries {
			return false
		}
	case in.Class.IsFPOp():
		if c.fpQCount >= c.cfg.Core.FPIQEntries {
			return false
		}
	default:
		if c.intQCount >= c.cfg.Core.IntIQEntries {
			return false
		}
	}
	if in.Dest != isa.RegZero {
		if in.Dest.IsFP() {
			if len(c.fpFree) == 0 {
				return false
			}
		} else if len(c.intFree) == 0 {
			return false
		}
	}
	return true
}

// renameSrc resolves a source register to its current physical mapping.
func (c *Core) renameSrc(r isa.Reg) int16 {
	if r == isa.RegZero {
		return -1
	}
	if r.IsFP() {
		return c.fpMap[r-isa.FPBase]
	}
	return c.intMap[r]
}

// allocDest takes a free physical register for the destination and returns
// (new, previous) mappings. The new register is marked not-ready until the
// producer issues.
func (c *Core) allocDest(r isa.Reg) (newPhys, prevPhys int16) {
	if r.IsFP() {
		i := r - isa.FPBase
		newPhys = c.fpFree[len(c.fpFree)-1]
		c.fpFree = c.fpFree[:len(c.fpFree)-1]
		prevPhys = c.fpMap[i]
		c.fpMap[i] = newPhys
		c.fpReady[newPhys] = never
		return newPhys, prevPhys
	}
	newPhys = c.intFree[len(c.intFree)-1]
	c.intFree = c.intFree[:len(c.intFree)-1]
	prevPhys = c.intMap[r]
	c.intMap[r] = newPhys
	c.intReady[newPhys] = never
	return newPhys, prevPhys
}

// srcReadyAt returns the cycle a source operand becomes available (0 for
// no dependence).
func (c *Core) srcReadyAt(reg isa.Reg, phys int16) uint64 {
	if phys < 0 {
		return 0
	}
	if reg.IsFP() {
		return c.fpReady[phys]
	}
	return c.intReady[phys]
}

// readyAt returns the cycle the entry clears issue's operand gate — both
// operands for most classes, the address operand alone for stores — serving
// it from the entry's readyCache while readyGen matches. A cached finite
// value is final until a memory-order squash bumps the global generation; a
// cached never is parked on the blocking register's waiter list, and the
// publish that ends the wait (setDestReady) stales exactly those caches.
//
//portlint:hotpath
func (c *Core) readyAt(e *robEntry, idx int32) uint64 {
	if e.readyGen == c.readyGen {
		return e.readyCache
	}
	return c.readyAtSlow(e, idx)
}

// readyAtSlow recomputes and refills a missed readiness cache, parking the
// entry on a waiter list when a producer is unscheduled; split from readyAt
// so the cache-hit path inlines into the issue scans.
//
//portlint:hotpath
func (c *Core) readyAtSlow(e *robEntry, idx int32) uint64 {
	var r uint64
	if e.inst.Class == isa.Store {
		r = c.srcReadyAt(e.inst.Src1, e.src1Phys)
		if r == never {
			c.addWaiter(e, idx, e.inst.Src1, e.src1Phys)
		}
	} else {
		a := c.srcReadyAt(e.inst.Src1, e.src1Phys)
		b := c.srcReadyAt(e.inst.Src2, e.src2Phys)
		// Park on whichever producer is unscheduled; if both are, the
		// first publish triggers a recompute that re-parks on the other.
		if a == never {
			c.addWaiter(e, idx, e.inst.Src1, e.src1Phys)
		} else if b == never {
			c.addWaiter(e, idx, e.inst.Src2, e.src2Phys)
		}
		r = a
		if b > r {
			r = b
		}
	}
	e.readyCache = r
	e.readyGen = c.readyGen
	return r
}

// addWaiter parks a dispatched entry on the unpublished register blocking
// it; the pop in setDestReady is the only thing that un-parks it. A parked
// entry keeps its valid-never cache across squash-driven recomputes, so the
// onWaitList guard prevents double insertion.
func (c *Core) addWaiter(e *robEntry, idx int32, reg isa.Reg, phys int16) {
	if e.onWaitList {
		return
	}
	var head *int32
	if reg.IsFP() {
		head = &c.fpWaiter[phys]
	} else {
		head = &c.intWaiter[phys]
	}
	e.waitNext = *head
	*head = idx
	e.onWaitList = true
}

// setDestReady publishes the completion time of an instruction's result and
// wakes the consumers parked on the destination register: their valid-never
// readiness caches are staled and each is re-routed to the worklist its
// recomputed readiness calls for — the wake heap when the publish scheduled
// it (publishes always land in the future, so a woken entry is never
// immediately live), or another register's waiter list when a second
// producer is still unscheduled.
//
//portlint:hotpath
func (c *Core) setDestReady(e *robEntry, at uint64) {
	if e.destPhys < 0 {
		return
	}
	var head *int32
	if e.inst.Dest.IsFP() {
		c.fpReady[e.destPhys] = at
		head = &c.fpWaiter[e.destPhys]
	} else {
		c.intReady[e.destPhys] = at
		head = &c.intWaiter[e.destPhys]
	}
	idx := *head
	*head = -1
	for idx != -1 {
		w := &c.rob[idx]
		next := w.waitNext
		w.onWaitList = false
		w.readyGen = staleGen
		if w.state == stateDispatched {
			c.route(w, idx)
		} else {
			// Address-issued store whose data producer just scheduled:
			// finalise the completion it was parked for and file it on
			// complete()'s worklist (noteIssued left it off while doneAt
			// was unknown).
			d := c.storeDoneAt(w)
			w.doneAt = d
			c.issList[c.issCount] = idx
			c.issCount++
			if d < c.nextDoneAt {
				c.nextDoneAt = d
			}
		}
		idx = next
	}
}

// route files a dispatched entry into the worklist matching its readiness:
// the live scan list when its operands have already arrived, the wake heap
// when the next issue attempt is at a known future cycle, or — via the
// waiter registration inside readyAtSlow — a register waiter list when a
// producer is unscheduled. Idempotent through the inLive/inHeap guards, so
// re-routing after a squash or a conservative wake is always safe.
//
//portlint:hotpath
func (c *Core) route(e *robEntry, idx int32) {
	r := c.readyAt(e, idx)
	if r == never {
		return // parked on the blocking register's waiter list
	}
	if r <= c.cycle {
		c.liveInsert(e, idx)
		return
	}
	c.heapPush(c.attemptTime(e, r), idx)
}

// liveInsert places a dispatched entry whose readiness has arrived into its
// live scan list (liveStores for stores, liveList for the rest) at its
// program-order position. A newly dispatched or freshly woken entry is
// usually younger than everything already listed, so the insert scans from
// the tail and almost always appends. Inserting while issue() is mid-scan
// is safe: the entry's producers all sit at earlier positions, so its slot
// lands beyond the scan cursor.
//
//portlint:hotpath
func (c *Core) liveInsert(e *robEntry, idx int32) {
	if e.inLive {
		return
	}
	e.inLive = true
	list := c.liveList
	count := &c.liveCount
	if e.inst.Class == isa.Store {
		list = c.liveStores
		count = &c.liveStoreCount
	}
	n := *count
	*count = n + 1
	k := n
	for k > 0 && c.rob[list[k-1]].seq > e.seq {
		list[k] = list[k-1]
		k--
	}
	list[k] = idx
}

// heapPush schedules a dispatched entry's next issue attempt on the wake
// min-heap. An entry already in the heap keeps its existing (earlier or
// equal, hence conservative) wake time: the wake re-routes it anyway.
//
//portlint:hotpath
func (c *Core) heapPush(at uint64, idx int32) {
	e := &c.rob[idx]
	if e.inHeap {
		return
	}
	e.inHeap = true
	h := append(c.wakeHeap, wakeEntry{at: at, idx: idx}) //portlint:ignore hotpath inHeap bounds len by ROBEntries, the preallocated capacity; never grows
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].at <= h[i].at {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	c.wakeHeap = h
}

// drainWake pops every wake-heap entry whose attempt time has arrived and
// re-routes it — normally into the live list; back to the heap or a waiter
// list when a squash moved its readiness after the push.
//
//portlint:hotpath
func (c *Core) drainWake() {
	for len(c.wakeHeap) > 0 && c.wakeHeap[0].at <= c.cycle {
		h := c.wakeHeap
		idx := h[0].idx
		n := len(h) - 1
		h[0] = h[n]
		c.wakeHeap = h[:n]
		i := 0
		for {
			l := 2*i + 1
			if l >= n {
				break
			}
			if r := l + 1; r < n && h[r].at < h[l].at {
				l = r
			}
			if h[i].at <= h[l].at {
				break
			}
			h[i], h[l] = h[l], h[i]
			i = l
		}
		e := &c.rob[idx]
		e.inHeap = false
		c.route(e, idx) // may push back onto c.wakeHeap; resynced above
	}
}

// attemptTime maps an entry's (finite) operand readiness to the first cycle
// it could pass issue()'s per-entry gates: address generation for memory
// ops, the unpipelined dividers for mul/div. Divider times are read at call
// time and only ever move later, so a stored result is a conservative lower
// bound on the true attempt cycle.
//
//portlint:hotpath
func (c *Core) attemptTime(e *robEntry, ready uint64) uint64 {
	switch e.inst.Class {
	case isa.Load, isa.Store:
		return agenDoneAt(e, ready, c.cfg.Lat.AGen)
	case isa.IntMul, isa.IntDiv:
		if c.intDivFreeAt > ready {
			return c.intDivFreeAt
		}
		return ready
	case isa.FPMul, isa.FPDiv:
		if c.fpDivFreeAt > ready {
			return c.fpDivFreeAt
		}
		return ready
	default:
		return ready
	}
}

// fuState tracks per-cycle functional-unit consumption during issue.
type fuState struct {
	issued int
	memOps int
	intALU int
	intMul int
	fpAdd  int
	fpMul  int
}

// issue starts execution of every instruction whose operands are available
// and whose functional unit (or memory-port path) is free this cycle. The
// scan walks only the live list — the program-ordered dispatched entries
// whose readiness has already arrived — after draining matured wake-heap
// entries into it; everything still waiting on a future cycle or an
// unscheduled producer is parked off-list and costs the scan nothing. The
// issue decisions are identical to a scan of all dispatched entries: the
// parked entries are exactly those such a scan would have skipped (or
// visited without effect, for attempts gated on address generation or a
// busy divider).
//
//portlint:hotpath
func (c *Core) issue() {
	c.drainWake()
	if c.liveCount == 0 && c.liveStoreCount == 0 {
		return
	}
	var fu fuState
	lat := &c.cfg.Lat
	parked := 0 // live entries re-parked after a squash moved their readiness
	for k := 0; k < c.liveCount && fu.issued < c.cfg.Core.IssueWidth; k++ {
		idx := c.liveList[k]
		e := &c.rob[idx]
		ready := c.readyAt(e, idx)
		if ready > c.cycle {
			// Only a memory-order squash moves a live entry's readiness:
			// re-park it where it now belongs (readyAtSlow already put a
			// now-never entry on a waiter list).
			e.inLive = false
			parked++
			if ready != never {
				c.heapPush(c.attemptTime(e, ready), idx)
			}
			continue
		}
		in := &e.inst
		switch in.Class {
		case isa.IntALU, isa.Branch, isa.Jump, isa.Call, isa.Return:
			if fu.intALU >= c.cfg.Core.IntALUs {
				continue
			}
			fu.intALU++
			c.start(e, idx, &fu, c.cycle+uint64(lat.IntALU))
		case isa.IntMul:
			if fu.intMul >= c.cfg.Core.IntMulDivs || c.cycle < c.intDivFreeAt {
				continue
			}
			fu.intMul++
			c.start(e, idx, &fu, c.cycle+uint64(lat.IntMul))
		case isa.IntDiv:
			if fu.intMul >= c.cfg.Core.IntMulDivs || c.cycle < c.intDivFreeAt {
				continue
			}
			fu.intMul++
			done := c.cycle + uint64(lat.IntDiv)
			c.intDivFreeAt = done // divider is unpipelined
			c.start(e, idx, &fu, done)
		case isa.FPAdd:
			if fu.fpAdd >= c.cfg.Core.FPAdders {
				continue
			}
			fu.fpAdd++
			c.start(e, idx, &fu, c.cycle+uint64(lat.FPAdd))
		case isa.FPMul:
			if fu.fpMul >= c.cfg.Core.FPMulDivs || c.cycle < c.fpDivFreeAt {
				continue
			}
			fu.fpMul++
			c.start(e, idx, &fu, c.cycle+uint64(lat.FPMul))
		case isa.FPDiv:
			if fu.fpMul >= c.cfg.Core.FPMulDivs || c.cycle < c.fpDivFreeAt {
				continue
			}
			fu.fpMul++
			done := c.cycle + uint64(lat.FPDiv)
			c.fpDivFreeAt = done
			c.start(e, idx, &fu, done)
		case isa.Load:
			c.issueLoad(e, idx, &fu, ready)
		}
	}
	// Stores issue on address availability alone — which is what readyAt
	// tracks for them — so they live on their own list and are scheduled
	// in a second pass that ignores the data operand's readiness.
	for k := 0; k < c.liveStoreCount && fu.issued < c.cfg.Core.IssueWidth; k++ {
		idx := c.liveStores[k]
		e := &c.rob[idx]
		addrReady := c.readyAt(e, idx)
		if addrReady > c.cycle {
			// Squash-moved readiness: re-park, as in the first pass.
			e.inLive = false
			parked++
			if addrReady != never {
				c.heapPush(c.attemptTime(e, addrReady), idx)
			}
			continue
		}
		c.issueStore(e, idx, &fu, addrReady)
	}
	if fu.issued == 0 && parked == 0 {
		return // nothing left the worklists: compaction would be a no-op
	}
	// Compact: entries that issued or re-parked this cycle leave their
	// live list. Order is preserved, so the lists stay program-ordered.
	w := 0
	for k := 0; k < c.liveCount; k++ {
		idx := c.liveList[k]
		if c.rob[idx].inLive {
			c.liveList[w] = idx
			w++
		}
	}
	c.liveCount = w
	w = 0
	for k := 0; k < c.liveStoreCount; k++ {
		idx := c.liveStores[k]
		if c.rob[idx].inLive {
			c.liveStores[w] = idx
			w++
		}
	}
	c.liveStoreCount = w
}

// start transitions an entry to issued with the given completion time and
// releases its issue-queue slot.
//
//portlint:hotpath
func (c *Core) start(e *robEntry, idx int32, fu *fuState, doneAt uint64) {
	e.state = stateIssued
	e.inLive = false
	e.doneAt = doneAt
	c.noteIssued(idx, doneAt)
	c.setDestReady(e, doneAt)
	if c.rec != nil {
		c.rec.Record(c.cycle, diag.EventIssue, e.seq, e.inst.Addr)
	}
	fu.issued++
	switch {
	case e.inst.Class == isa.Load || e.inst.Class == isa.Store:
		// Load/store queue slots are held until commit.
	case e.inst.Class.IsFPOp():
		c.fpQCount--
	default:
		c.intQCount--
	}
}

// agenDoneAt is the cycle a memory operation's effective address is
// available: one AGen latency after its operands are ready (or after
// dispatch, for operand-free addresses).
func agenDoneAt(e *robEntry, opsReady uint64, agen int) uint64 {
	base := opsReady
	if e.dispatchedAt > base {
		base = e.dispatchedAt
	}
	return base + uint64(agen)
}

// issueStore performs the store's address generation as soon as the
// address operand is available — the data operand may still be in flight.
// The store completes (becomes committable) only when its data is also
// ready; complete() finalises that. The cache write itself happens after
// commit, through the store buffer.
func (c *Core) issueStore(e *robEntry, idx int32, fu *fuState, addrOpReady uint64) {
	if fu.memOps >= c.cfg.Core.MemIssuePerCycle {
		return
	}
	if agenDoneAt(e, addrOpReady, c.cfg.Lat.AGen) > c.cycle {
		return // address generation still in flight
	}
	fu.memOps++
	fu.issued++
	e.addrReadyAt = c.cycle
	e.state = stateIssued
	e.inLive = false
	e.doneAt = c.storeDoneAt(e)
	c.sqGen++ // this store's address is now known: clean verdicts expire
	c.noteIssued(idx, e.doneAt)
	if e.doneAt == never {
		// Data producer unscheduled: park on its waiter list so the
		// publish finalises this store's completion (setDestReady) —
		// complete() never polls for it.
		c.addWaiter(e, idx, e.inst.Src2, e.src2Phys)
	}
	if c.cfg.Core.SpeculativeLoads {
		c.checkMemOrder(e)
	}
}

// storeDoneAt computes when an address-issued store's data is available:
// one cycle after AGEN, or when the data operand arrives, whichever is
// later. Returns never while the data producer is unscheduled.
func (c *Core) storeDoneAt(e *robEntry) uint64 {
	dataReady := c.srcReadyAt(e.inst.Src2, e.src2Phys)
	if dataReady == never {
		return never
	}
	done := e.addrReadyAt + 1
	if dataReady+1 > done {
		done = dataReady + 1
	}
	return done
}

// checkMemOrder runs when a store's address resolves under memory-
// dependence speculation: any younger load that already issued with an
// overlapping address consumed stale data and squashes the pipeline. The
// trace-driven model charges the squash as a fetch bubble (the refetched
// path is identical, so only the timing cost matters).
func (c *Core) checkMemOrder(store *robEntry) {
	b, st := store.inst.Addr, uint64(store.inst.Size)
	for off := 0; off < c.robCount; off++ {
		e := &c.rob[c.robIndex(off)]
		if e.seq <= store.seq || e.inst.Class != isa.Load || e.state == stateDispatched {
			continue
		}
		a, sz := e.inst.Addr, uint64(e.inst.Size)
		if a < b+st && b < a+sz {
			c.memViolations++
			stallUntil := c.cycle + uint64(c.cfg.Core.ViolationPenalty)
			if stallUntil > c.fetchBlockedTil {
				c.fetchBlockedTil = stallUntil
			}
			// The load's data is refetched from the store: delay its
			// completion past the store's.
			if redo := c.cycle + 1; e.doneAt < redo {
				if e.state == stateDone {
					// Re-issuing a completed load; complete's
					// worklist must see it again. (A still-issued
					// load is already listed.)
					c.issList[c.issCount] = int32(c.robIndex(off))
					c.issCount++
				}
				e.doneAt = redo
				e.state = stateIssued
				if redo < c.nextDoneAt {
					c.nextDoneAt = redo
				}
				c.setDestReady(e, redo)
				// The load's result time just moved after being
				// published: invalidate every readiness cache. Stale
				// live-list and wake-heap placements re-park lazily on
				// their next visit.
				c.readyGen++
			}
			return
		}
	}
}

// issueLoad tries to start a load: address generated, older store addresses
// known, store-to-load forwarding or a memory-port access.
//
//portlint:hotpath
func (c *Core) issueLoad(e *robEntry, idx int32, fu *fuState, opsReady uint64) {
	if fu.memOps >= c.cfg.Core.MemIssuePerCycle {
		return
	}
	if agenDoneAt(e, opsReady, c.cfg.Lat.AGen) > c.cycle {
		return
	}
	in := &e.inst
	// Memory disambiguation. Conservative (R10000-style) by default:
	// every older store must have a known address before the load may
	// proceed. With SpeculativeLoads, unknown-address stores are assumed
	// non-conflicting; issueStore detects violations when they resolve.
	// The scan walks the store-queue ring backward from the load's
	// dispatch-time mark: exactly the older stores still in flight,
	// youngest first — the same stores, in the same order, the full
	// backward ROB walk used to visit.
	var cover *robEntry // youngest older store fully covering the load
	if c.sqCount > 0 && e.lsqCleanGen != c.sqGen {
		mask := uint64(len(c.sqRing) - 1)
		for p := e.sqMark; p > c.sqHead; {
			p--
			s := &c.rob[c.sqRing[p&mask]]
			if s.state == stateDispatched {
				if c.cfg.Core.SpeculativeLoads {
					continue // speculate past the unresolved store
				}
				return // address unknown: stall
			}
			a, sz := in.Addr, uint64(in.Size)
			b, st := s.inst.Addr, uint64(s.inst.Size)
			if a < b+st && b < a+sz { // overlap
				if b <= a && a+sz <= b+st {
					cover = s
					break
				}
				return // partial overlap: wait for the store to commit
			}
		}
		if cover == nil {
			// Clean: no older in-flight store overlaps (nor, without
			// speculation, remains unresolved). Stores can only leave the
			// window from here on, so the verdict holds until the next
			// store issue bumps sqGen — retries skip the scan.
			e.lsqCleanGen = c.sqGen
		}
	}
	if cover != nil {
		// Store-to-load forwarding inside the LSQ: data comes from the
		// store queue one cycle later; no cache port involved.
		if cover.doneAt > c.cycle {
			return // store data not yet available
		}
		fu.memOps++
		c.start(e, idx, fu, c.cycle+1)
		c.lsqForwards++
		return
	}
	r := c.port.TryLoad(c.cycle, in.Addr, int(in.Size))
	if !r.Accepted {
		c.rec.Record(c.cycle, diag.EventReject, e.seq, in.Addr)
		return // port busy, MSHRs full, or store-buffer conflict: retry
	}
	c.rec.Record(c.cycle, diag.EventGrant, e.seq, in.Addr)
	fu.memOps++
	c.start(e, idx, fu, r.Ready)
}
