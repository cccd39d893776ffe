package cpu

import (
	"portsim/internal/config"
	"portsim/internal/isa"
)

// This file holds the issue and completion schedulers' storage: bitsets
// over ROB slice indices, and cycle wheels of such bitsets (DESIGN.md "The
// two-tier issue scheduler"), plus the per-class tables the pipeline
// stages read instead of switching on the class.

// slotSet is a bitset over ROB slice indices, one bit per slot.
type slotSet []uint64

//portlint:hotpath
func (s slotSet) set(i int32) { s[i>>6] |= 1 << (i & 63) }

//portlint:hotpath
func (s slotSet) unset(i int32) { s[i>>6] &^= 1 << (i & 63) }

// ringWord returns word k (0 to len(s)) of a ring-order walk of s from
// slot start, which for the ROB's head slot is program order: the start
// word's bits from start up, then every other word in turn, then the start
// word's bits below start. It also returns the word's index. A walk reads
// each word when it reaches it.
//
//portlint:hotpath
func ringWord(s slotSet, start, k int) (int, uint64) {
	wi := start>>6 + k
	if wi >= len(s) {
		wi -= len(s)
	}
	low := uint64(1)<<(start&63) - 1
	switch k {
	case 0:
		return wi, s[wi] &^ low
	case len(s):
		return wi, s[wi] & low
	}
	return wi, s[wi]
}

// wheelSlots is the horizon of both cycle wheels: a time at most
// wheelSlots-1 cycles ahead has its own slot. A later time is filed at the
// last slot and re-filed when that slot comes round, which is safe because
// an early wake re-parks and an early completion check re-files. A power of
// two, so a time maps to its slot with a mask.
const wheelSlots = 256

// wheel is a cycle-indexed ring of slotSets: slot t&(wheelSlots-1) holds
// the entries filed for cycle t.
type wheel struct {
	bits  []uint64
	words int // words per slot
}

// slot returns the slotSet filed for cycle t.
//
//portlint:hotpath
func (w *wheel) slot(t uint64) slotSet {
	k := int(t&(wheelSlots-1)) * w.words
	return slotSet(w.bits[k : k+w.words])
}

// file sets ROB slot i in the slotSet for cycle t.
//
//portlint:hotpath
func (w *wheel) file(t uint64, i int32) {
	w.bits[int(t&(wheelSlots-1))*w.words+int(i>>6)] |= 1 << (i & 63)
}

// newSched carves the three slot sets and the two wheels for an n-entry
// ROB out of one allocation.
func newSched(n int) (live, liveStores, lsqWait slotSet, wake, done wheel) {
	nw := (n + 63) / 64 // words per slotSet
	slab := make([]uint64, (3+2*wheelSlots)*nw)
	live, slab = slab[:nw:nw], slab[nw:]
	liveStores, slab = slab[:nw:nw], slab[nw:]
	lsqWait, slab = slab[:nw:nw], slab[nw:]
	wake = wheel{bits: slab[: wheelSlots*nw : wheelSlots*nw], words: nw}
	done = wheel{bits: slab[wheelSlots*nw:], words: nw}
	return live, liveStores, lsqWait, wake, done
}

// queue names the finite structure an instruction waits in between
// dispatch and issue (issue queues) or commit (load/store queues).
type queue uint8

const (
	qInt   queue = iota // integer issue queue
	qFP                 // floating-point issue queue
	qLoad               // load queue
	qStore              // store queue
	qNone               // no structure: Nop and Syscall complete at dispatch
	numQueues
)

// unit names the functional unit a class executes on.
type unit uint8

const (
	uALU      unit = iota // integer ALUs, control transfers included
	uMulDiv               // integer multiply/divide
	uFPAdd                // floating-point adders
	uFPMulDiv             // floating-point multiply/divide
	uMem                  // address generation and the memory port
	uNone                 // Nop and Syscall execute nowhere
	numUnits
)

// classInfo is what dispatch, issue and commit need to know about an
// instruction class.
type classInfo struct {
	lat          uint64 // execution latency; address generation for memory classes
	gate         queue  // dispatch stalls while this queue is full
	occupy       queue  // the queue the entry holds from dispatch
	freeAtCommit bool   // occupy is released at commit, not at issue
	unit         unit
	unpipelined  bool // issuing busies the unit until completion
}

// classTable derives every class's row from the isa predicates and the
// machine's latencies.
func classTable(lat *config.Latencies) (t [isa.NumClasses]classInfo) {
	for i := range t {
		c := isa.Class(i)
		ci := &t[i]
		switch {
		case c.IsMem():
			ci.gate = qLoad
			if c == isa.Store {
				ci.gate = qStore
			}
			ci.occupy, ci.freeAtCommit, ci.unit, ci.lat = ci.gate, true, uMem, uint64(lat.AGen)
		case c.IsFPOp():
			ci.gate, ci.occupy, ci.unit, ci.lat = qFP, qFP, uFPAdd, uint64(lat.FPAdd)
			switch c {
			case isa.FPMul:
				ci.unit, ci.lat = uFPMulDiv, uint64(lat.FPMul)
			case isa.FPDiv:
				ci.unit, ci.lat, ci.unpipelined = uFPMulDiv, uint64(lat.FPDiv), true
			}
		case c == isa.Nop || c == isa.Syscall:
			// No functional unit: they complete at dispatch. They are
			// gated on the integer queue without occupying it.
			ci.gate, ci.occupy, ci.freeAtCommit, ci.unit = qInt, qNone, true, uNone
		default:
			ci.gate, ci.occupy, ci.unit, ci.lat = qInt, qInt, uALU, uint64(lat.IntALU)
			switch c {
			case isa.IntMul:
				ci.unit, ci.lat = uMulDiv, uint64(lat.IntMul)
			case isa.IntDiv:
				ci.unit, ci.lat, ci.unpipelined = uMulDiv, uint64(lat.IntDiv), true
			}
		}
	}
	return t
}

// queueCaps returns each queue's capacity; qNone has none.
func queueCaps(c *config.Core) [numQueues]int {
	return [numQueues]int{
		qInt: c.IntIQEntries, qFP: c.FPIQEntries,
		qLoad: c.LoadQueueEntries, qStore: c.StoreQueueEntries,
	}
}

// unitCaps returns how many instructions each unit accepts per cycle.
func unitCaps(c *config.Core) [numUnits]int {
	return [numUnits]int{
		uALU: c.IntALUs, uMulDiv: c.IntMulDivs,
		uFPAdd: c.FPAdders, uFPMulDiv: c.FPMulDivs,
		uMem: c.MemIssuePerCycle,
	}
}
