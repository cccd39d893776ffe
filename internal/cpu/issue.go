package cpu

import (
	"math/bits"

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
		f := &c.fetchBuf[c.fbHead]
		in := &f.inst
		ci := &c.classes[in.Class]
		if c.qCount[ci.gate] >= c.qCap[ci.gate] || !c.destFree(in.Dest) {
			return
		}

		idx := int32(c.robIndex(c.robCount))
		e := &c.rob[idx]
		// ROB slots are reused, so every robEntry field read before it is
		// written must be reset here — field-by-field rather than via a
		// composite literal, which would construct and copy a temporary on
		// the hottest path. addrReadyAt is written at store issue.
		e.inst = *in
		e.seq = f.seq
		e.state = stateDispatched
		e.doneAt = never
		e.destPhys = -1
		e.prevPhys = -1
		e.src1Phys = c.renameSrc(in.Src1)
		e.src2Phys = c.renameSrc(in.Src2)
		e.sqMark = c.sqTail
		e.dispatchedAt = c.cycle
		e.onWaitList = false // readyCache, readyGen and waitNext are written before they are read
		e.lsqGen = 0
		e.mispredicted = f.mispredicted
		e.serialize = f.serialize
		if in.Dest != isa.RegZero {
			e.destPhys, e.prevPhys = c.allocDest(in.Dest)
		}
		c.qCount[ci.occupy]++
		if ci.occupy == qStore {
			c.sqRing[c.sqTail&uint64(len(c.sqRing)-1)] = sqEntry{addr: in.Addr, idx: idx, size: in.Size}
			c.sqTail++
		}
		if ci.unit == uNone {
			// No functional unit: completes immediately. Syscall
			// ordering comes from in-order commit plus the fetch
			// stall it already owns.
			e.state = stateIssued
			e.doneAt = c.cycle + 1
			c.fileDone(e.doneAt, idx)
		} else {
			c.route(e, idx, c.readyAtSlow(e, idx))
		}
		c.robCount++
		c.fbPop()
	}
}

// destFree reports whether a physical register is free for destination r.
//
//portlint:hotpath
func (c *Core) destFree(r isa.Reg) bool {
	if r == isa.RegZero {
		return true
	}
	if r.IsFP() {
		return len(c.fpFree) > 0
	}
	return len(c.intFree) > 0
}

// renameSrc resolves a source register to its current physical mapping.
//
//portlint:hotpath
func (c *Core) renameSrc(r isa.Reg) int16 {
	if r == isa.RegZero {
		return -1
	}
	return c.regMap[r]
}

// allocDest takes a free physical register for the destination and returns
// (new, previous) mappings. The new register is marked not-ready until the
// producer issues.
func (c *Core) allocDest(r isa.Reg) (newPhys, prevPhys int16) {
	free := &c.intFree
	if r.IsFP() {
		free = &c.fpFree
	}
	n := len(*free) - 1
	newPhys = (*free)[n]
	*free = (*free)[:n]
	prevPhys = c.regMap[r]
	c.regMap[r] = newPhys
	c.ready[newPhys] = never
	return newPhys, prevPhys
}

// srcReadyAt returns the cycle a source operand's physical register becomes
// available (0 for no dependence).
//
//portlint:hotpath
func (c *Core) srcReadyAt(phys int16) uint64 {
	if phys < 0 {
		return 0
	}
	return c.ready[phys]
}

// readyAt returns the cycle the entry clears issue's operand gate — both
// operands for most classes, the address operand alone for stores — serving
// it from the entry's readyCache while readyGen matches. A cached finite
// value is final until a memory-order squash bumps the global generation; a
// cached never is parked on the blocking register's waiter list, and the
// publish that ends the wait (wakeWaiters) recomputes exactly those caches.
//
//portlint:hotpath
func (c *Core) readyAt(e *robEntry, idx int32) uint64 {
	if e.readyGen == c.readyGen {
		return e.readyCache
	}
	return c.readyAtSlow(e, idx)
}

// readyAtSlow recomputes and refills an entry's readiness cache, parking the
// entry on a waiter list when a producer is unscheduled; split from readyAt
// so the cache-hit path inlines into the issue scans. Dispatch and
// wakeWaiters, whose caches are always stale, call it directly.
//
//portlint:hotpath
func (c *Core) readyAtSlow(e *robEntry, idx int32) uint64 {
	var r uint64
	if e.inst.Class == isa.Store {
		r = c.srcReadyAt(e.src1Phys)
		if r == never {
			c.addWaiter(e, idx, e.src1Phys)
		}
	} else {
		a := c.srcReadyAt(e.src1Phys)
		b := c.srcReadyAt(e.src2Phys)
		// Park on whichever producer is unscheduled; if both are, the
		// first publish triggers a recompute that re-parks on the other.
		if a == never {
			c.addWaiter(e, idx, e.src1Phys)
		} else if b == never {
			c.addWaiter(e, idx, e.src2Phys)
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
// it; the pop in wakeWaiters is the only thing that un-parks it. A parked
// entry keeps its valid-never cache across squash-driven recomputes, so the
// onWaitList guard prevents double insertion.
func (c *Core) addWaiter(e *robEntry, idx int32, phys int16) {
	if e.onWaitList {
		return
	}
	e.waitNext = c.waiter[phys]
	c.waiter[phys] = idx
	e.onWaitList = true
}

// setDestReady publishes the completion time of an instruction's result and
// wakes the consumers parked on the destination register (wakeWaiters).
//
//portlint:hotpath
func (c *Core) setDestReady(e *robEntry, at uint64) {
	if p := e.destPhys; p >= 0 {
		c.ready[p] = at
		if c.waiter[p] != -1 {
			c.wakeWaiters(p)
		}
	}
}

// wakeWaiters empties a published register's waiter list: each waiter's
// valid-never readiness cache is recomputed and the entry re-routed to the
// worklist that readiness calls for — the wake wheel when the publish
// scheduled it (publishes always land in the future, so a woken entry is
// never immediately live), or another register's waiter list when a second
// producer is still unscheduled.
//
//portlint:hotpath
func (c *Core) wakeWaiters(phys int16) {
	idx := c.waiter[phys]
	c.waiter[phys] = -1
	for idx != -1 {
		w := &c.rob[idx]
		next := w.waitNext
		w.onWaitList = false
		if w.state == stateDispatched {
			c.route(w, idx, c.readyAtSlow(w, idx))
		} else {
			// Address-issued store whose data producer just scheduled:
			// finalise the completion it was parked for and file it on
			// the done wheel (issueStore left it off while doneAt was
			// unknown).
			w.doneAt = c.storeDoneAt(w)
			c.fileDone(w.doneAt, idx)
		}
		idx = next
	}
}

// route files a dispatched entry, which sits in no scheduler structure,
// where its readiness r calls for: the live set when its operands have
// arrived, the wake wheel when its next attempt is at a known future cycle,
// or — via the waiter registration inside readyAtSlow, which computed r —
// a register waiter list when a producer is unscheduled. A live entry
// still waiting on address generation or a busy divider leaves the live
// set at its first visit (repark).
//
//portlint:hotpath
func (c *Core) route(e *robEntry, idx int32, r uint64) {
	switch {
	case r == never:
		// parked on the blocking register's waiter list
	case r > c.cycle:
		c.fileWake(c.attemptTime(e, r), idx)
	case e.inst.Class == isa.Store:
		c.liveStores.set(idx)
	default:
		c.live.set(idx)
	}
}

// fileWake files a dispatched entry on the wake wheel for its attempt time
// at, which lies in the future. A time past the wheel's horizon is filed
// at its last slot: the wake then re-routes the entry, which files it
// again.
//
//portlint:hotpath
func (c *Core) fileWake(at uint64, idx int32) {
	if at >= c.cycle+wheelSlots {
		at = c.cycle + wheelSlots - 1
	}
	c.wake.file(at, idx)
	c.work.wakeFiling()
}

// drainWake routes every entry filed on the wake wheel for this cycle —
// normally into a live set; back onto the wheel when a squash or a busier
// divider moved its attempt time after the filing, or when it was filed
// early at the horizon.
//
//portlint:hotpath
func (c *Core) drainWake() {
	s := c.wake.slot(c.cycle)
	for k, w := range s {
		if w == 0 {
			continue
		}
		s[k] = 0
		for ; w != 0; w &= w - 1 {
			idx := int32(k<<6 + bits.TrailingZeros64(w))
			e := &c.rob[idx]
			c.route(e, idx, c.readyAt(e, idx))
		}
	}
}

// attemptTime maps an entry's (finite) operand readiness to the first cycle
// it could pass issue()'s per-entry gates: address generation for memory
// ops, a busy unpipelined unit (the dividers) for the rest. Unit times are
// read at call time and only ever move later, so a stored result is a
// conservative lower bound on the true attempt cycle.
//
//portlint:hotpath
func (c *Core) attemptTime(e *robEntry, ready uint64) uint64 {
	return c.attemptAt(&c.classes[e.inst.Class], e, ready)
}

// attemptAt is attemptTime for an entry whose class row is ci.
//
//portlint:hotpath
func (c *Core) attemptAt(ci *classInfo, e *robEntry, ready uint64) uint64 {
	if ci.unit == uMem {
		return agenDoneAt(e, ready, ci.lat)
	}
	return max(ready, c.unitFreeAt[ci.unit])
}

// fuState tracks per-cycle functional-unit consumption during issue.
type fuState struct {
	issued int
	used   [numUnits]int
}

// issue starts execution of every instruction whose operands are available
// and whose functional unit (or memory-port path) is free this cycle. It
// routes the wake wheel's entries for this cycle, then scans the live
// sets — the dispatched entries that can attempt issue now — in program
// order; everything still waiting on a future cycle or an unscheduled
// producer is parked off them and costs the scan nothing. The issue
// decisions are identical to a scan of all dispatched entries: the parked
// entries are exactly those such a scan would have skipped.
//
//portlint:hotpath
func (c *Core) issue() {
	c.drainWake()
	var fu fuState
	width := c.cfg.Core.IssueWidth
	for k := 0; k <= len(c.live) && fu.issued < width; k++ {
		wi, w := ringWord(c.live, c.robHead, k)
		for ; w != 0 && fu.issued < width; w &= w - 1 {
			idx := int32(wi<<6 + bits.TrailingZeros64(w))
			e := &c.rob[idx]
			ci := &c.classes[e.inst.Class]
			c.work.liveVisit()
			if fu.used[ci.unit] >= c.unitCap[ci.unit] {
				continue // its unit is taken for this cycle
			}
			if ready := c.readyAt(e, idx); ready > c.cycle || c.attemptAt(ci, e, ready) > c.cycle {
				c.repark(e, idx, c.live, ready)
				continue
			}
			if ci.unit == uMem {
				c.issueLoad(e, idx, &fu)
				continue
			}
			fu.used[ci.unit]++
			done := c.cycle + ci.lat
			if ci.unpipelined {
				c.unitFreeAt[ci.unit] = done
			}
			c.start(e, idx, &fu, done)
		}
	}
	// Stores issue on address availability alone — which is what readyAt
	// tracks for them — so they live in their own set and are scheduled
	// in a second pass that ignores the data operand's readiness. The
	// pass ends once the issue width or the memory issue slots are taken.
	agen := c.classes[isa.Store].lat
	stores := min(width-fu.issued, c.unitCap[uMem]-fu.used[uMem])
	for k := 0; k <= len(c.liveStores) && stores > 0; k++ {
		wi, w := ringWord(c.liveStores, c.robHead, k)
		for ; w != 0 && stores > 0; w &= w - 1 {
			idx := int32(wi<<6 + bits.TrailingZeros64(w))
			e := &c.rob[idx]
			c.work.liveVisit()
			if ready := c.readyAt(e, idx); ready > c.cycle || agenDoneAt(e, ready, agen) > c.cycle {
				c.repark(e, idx, c.liveStores, ready)
				continue
			}
			c.issueStore(e, idx, &fu)
			stores--
		}
	}
}

// repark takes a live entry that cannot attempt issue this cycle off its
// live set s and files it where its readiness now calls for. A live entry
// cannot attempt while its address generation is in flight, while an
// unpipelined unit it needs is busy, or once a memory-order squash has
// moved its readiness later; a readiness of never means readyAtSlow has
// parked it on a waiter list already.
//
//portlint:hotpath
func (c *Core) repark(e *robEntry, idx int32, s slotSet, ready uint64) {
	s.unset(idx)
	if ready != never {
		c.fileWake(c.attemptTime(e, ready), idx)
	}
}

// start transitions a non-store to issued with the given completion time,
// files it on the done wheel, publishes its result and releases its
// issue-queue slot.
//
//portlint:hotpath
func (c *Core) start(e *robEntry, idx int32, fu *fuState, doneAt uint64) {
	c.live.unset(idx)
	e.state = stateIssued
	e.doneAt = doneAt
	c.fileDone(doneAt, idx)
	c.setDestReady(e, doneAt)
	if c.rec != nil {
		c.rec.Record(c.cycle, diag.EventIssue, e.seq, e.inst.Addr)
	}
	fu.issued++
	if ci := &c.classes[e.inst.Class]; !ci.freeAtCommit {
		c.qCount[ci.occupy]--
	}
}

// agenDoneAt is the cycle a memory operation's effective address is
// available: one AGen latency after its operands are ready (or after
// dispatch, for operand-free addresses).
//
//portlint:hotpath
func agenDoneAt(e *robEntry, opsReady, agen uint64) uint64 {
	return max(opsReady, e.dispatchedAt) + agen
}

// issueStore performs the store's address generation, with a memory issue
// slot free this cycle — the data operand may still be in flight. The store completes (becomes committable) only
// when its data is also ready; the done wheel or its data producer's
// publish finalises that. The cache write itself happens after commit,
// through the store buffer.
//
//portlint:hotpath
func (c *Core) issueStore(e *robEntry, idx int32, fu *fuState) {
	fu.used[uMem]++
	fu.issued++
	c.liveStores.unset(idx)
	e.addrReadyAt = c.cycle
	e.state = stateIssued
	e.doneAt = c.storeDoneAt(e)
	c.sqRing[e.sqMark&uint64(len(c.sqRing)-1)].issued = true
	c.sqGen++ // this store's address is now known: cached verdicts expire
	c.wakeLSQ()
	if e.doneAt == never {
		// Data producer unscheduled: park on its waiter list so the
		// publish finalises this store's completion (setDestReady) —
		// complete() never polls for it.
		c.addWaiter(e, idx, e.src2Phys)
	} else {
		c.fileDone(e.doneAt, idx)
	}
	if c.cfg.Core.SpeculativeLoads {
		c.checkMemOrder(e)
	}
}

// storeDoneAt computes when an address-issued store's data is available:
// one cycle after AGEN, or when the data operand arrives, whichever is
// later. Returns never while the data producer is unscheduled.
func (c *Core) storeDoneAt(e *robEntry) uint64 {
	dataReady := c.srcReadyAt(e.src2Phys)
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
		idx := int32(c.robIndex(off))
		e := &c.rob[idx]
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
					// Re-issuing a completed load; the done wheel must
					// see it again. (A still-issued load is already
					// filed, for the next cycle: its completion time
					// has passed.)
					c.fileDone(redo, idx)
				}
				e.doneAt = redo
				e.state = stateIssued
				c.setDestReady(e, redo)
				// The load's result time just moved after being
				// published: invalidate every readiness cache. Stale
				// live and wake placements re-park lazily on their next
				// visit.
				c.readyGen++
			}
			return
		}
	}
}

// issueLoad tries to start a load whose address is generated, with a memory
// issue slot free this cycle: older store addresses known, store-to-load
// forwarding or a memory-port access.
//
//portlint:hotpath
func (c *Core) issueLoad(e *robEntry, idx int32, fu *fuState) {
	// Memory disambiguation against the older in-flight stores, which live
	// in [sqHead, sqMark) of the store ring; none are left once sqMark
	// falls to sqHead. The walk's verdict is cached on the load (lsqWalk).
	if e.sqMark > c.sqHead {
		if !c.lsqCached(e) {
			c.lsqWalk(e)
		}
		switch e.lsqVerdict {
		case lsqStall:
			// Nothing can end the stall before a store issues or commits:
			// park the load until then.
			c.live.unset(idx)
			c.lsqWait.set(idx)
			return
		case lsqCover:
			// Store-to-load forwarding inside the LSQ: data comes from
			// the store queue one cycle later; no cache port involved.
			cover := &c.rob[c.sqRing[e.lsqPos&uint64(len(c.sqRing)-1)].idx]
			if cover.doneAt > c.cycle {
				return // store data not yet available
			}
			fu.used[uMem]++
			c.start(e, idx, fu, c.cycle+1)
			c.lsqForwards++
			return
		}
	}
	in := &e.inst
	c.work.tryLoad()
	r := c.port.TryLoad(c.cycle, in.Addr, int(in.Size))
	if !r.Accepted {
		c.rec.Record(c.cycle, diag.EventReject, e.seq, in.Addr)
		return // port busy, MSHRs full, or store-buffer conflict: retry
	}
	c.rec.Record(c.cycle, diag.EventGrant, e.seq, in.Addr)
	fu.used[uMem]++
	c.start(e, idx, fu, r.Ready)
}

// wakeLSQ returns every load parked on a stall verdict to the live set. A
// store issuing or committing is the only event that can end a stall, and
// the next visit re-walks, or re-parks, a load whose stall holds.
//
//portlint:hotpath
func (c *Core) wakeLSQ() {
	for k, w := range c.lsqWait {
		if w != 0 {
			c.live[k] |= w
			c.lsqWait[k] = 0
		}
	}
}

// lsqCached reports whether a load's cached verdict still holds: no store
// has issued since the walk, and the deciding store, if any, has not
// committed.
//
//portlint:hotpath
func (c *Core) lsqCached(e *robEntry) bool {
	return e.lsqGen == c.sqGen && (e.lsqVerdict == lsqClean || e.lsqPos >= c.sqHead)
}

// lsqWalk caches a load's disambiguation verdict. Conservative
// (R10000-style) by default: every older store must have a known address
// before the load may proceed. With SpeculativeLoads, unknown-address
// stores are assumed non-conflicting; issueStore detects violations when
// they resolve. The walk goes backward from the load's dispatch-time mark,
// youngest older store first, and stops at the first one that decides:
// unresolved (without speculation), fully covering, or partially
// overlapping.
//
//portlint:hotpath
func (c *Core) lsqWalk(e *robEntry) {
	e.lsqGen = c.sqGen
	a, sz := e.inst.Addr, uint64(e.inst.Size)
	mask := uint64(len(c.sqRing) - 1)
	for p := e.sqMark; p > c.sqHead; {
		p--
		c.work.sqWalkStep()
		s := &c.sqRing[p&mask]
		if !s.issued {
			if c.cfg.Core.SpeculativeLoads {
				continue // speculate past the unresolved store
			}
			e.lsqVerdict, e.lsqPos = lsqStall, p // address unknown
			return
		}
		b, st := s.addr, uint64(s.size)
		if a < b+st && b < a+sz { // overlap
			e.lsqVerdict, e.lsqPos = lsqStall, p // partial: wait for the store to commit
			if b <= a && a+sz <= b+st {
				e.lsqVerdict = lsqCover
			}
			return
		}
	}
	e.lsqVerdict = lsqClean
}
