// Package bpred implements the branch prediction structures of the simulated
// front end: a gshare direction predictor of two-bit saturating counters, a
// set-associative branch target buffer, and a return-address stack. The
// paper's processor model follows the MIPS R10000's dynamic prediction;
// prediction accuracy matters to the port study because mispredictions
// throttle the memory-reference rate reaching the cache port. Every machine
// the experiments build uses gshare, so it is the only direction predictor.
package bpred

import (
	"fmt"

	"portsim/internal/config"
)

// counter is a two-bit saturating counter: 0,1 predict not-taken; 2,3
// predict taken.
type counter uint8

func (c counter) taken() bool { return c >= 2 }

func (c counter) train(taken bool) counter {
	if taken {
		if c < 3 {
			return c + 1
		}
		return c
	}
	if c > 0 {
		return c - 1
	}
	return c
}

// Gshare XORs a global branch-history register with the PC to index a shared
// table of two-bit counters. It is the direction predictor of every machine.
type Gshare struct {
	table    []counter
	mask     uint64
	history  uint64
	histMask uint64
}

// NewGshare returns a gshare predictor with the given table size (power of
// two) and global-history length in bits.
func NewGshare(entries, historyBits int) (*Gshare, error) {
	if entries <= 0 || entries&(entries-1) != 0 {
		return nil, fmt.Errorf("bpred: gshare table size %d not a power of two", entries)
	}
	if historyBits < 1 || historyBits > 30 {
		return nil, fmt.Errorf("bpred: gshare history length %d out of range", historyBits)
	}
	t := make([]counter, entries)
	for i := range t {
		t[i] = 1
	}
	return &Gshare{
		table:    t,
		mask:     uint64(entries - 1),
		histMask: (1 << historyBits) - 1,
	}, nil
}

func (g *Gshare) index(pc uint64) uint64 { return ((pc >> 2) ^ g.history) & g.mask }

// Predict returns the predicted direction for the branch at pc.
func (g *Gshare) Predict(pc uint64) bool { return g.table[g.index(pc)].taken() }

// Update trains the predictor with the actual outcome of the branch at pc
// and shifts it into the global history. Calls must come in program order
// (the model trains at resolution).
func (g *Gshare) Update(pc uint64, taken bool) {
	i := g.index(pc)
	g.table[i] = g.table[i].train(taken)
	g.history = (g.history << 1) & g.histMask
	if taken {
		g.history |= 1
	}
}

// Reset returns every counter to weakly not-taken and clears the global
// history, exactly as NewGshare left them, so a pooled simulation can reuse
// its tables for a fresh run.
func (g *Gshare) Reset() {
	for i := range g.table {
		g.table[i] = 1
	}
	g.history = 0
}

// btbEntry is one BTB way.
type btbEntry struct {
	tag    uint64
	target uint64
	valid  bool
	lru    uint64
}

// BTB is a set-associative branch target buffer with true-LRU replacement.
// The front end consults it to redirect fetch on predicted-taken branches;
// a taken prediction without a BTB hit cannot be redirected and costs the
// same bubble as a misprediction.
type BTB struct {
	ways    []btbEntry // set s occupies ways[s*assoc : (s+1)*assoc]
	assoc   uint64
	setMask uint64
	clock   uint64
}

// NewBTB returns a BTB with the given total entries and associativity.
func NewBTB(entries, assoc int) (*BTB, error) {
	if entries == 0 {
		return &BTB{}, nil // disabled: every lookup misses
	}
	if assoc <= 0 || entries%assoc != 0 {
		return nil, fmt.Errorf("bpred: BTB %d entries / %d ways invalid", entries, assoc)
	}
	nsets := entries / assoc
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("bpred: BTB set count %d not a power of two", nsets)
	}
	return &BTB{ways: make([]btbEntry, entries), assoc: uint64(assoc), setMask: uint64(nsets - 1)}, nil
}

// set returns the ways of the set that pc indexes.
func (b *BTB) set(pc uint64) []btbEntry {
	base := ((pc >> 2) & b.setMask) * b.assoc
	return b.ways[base : base+b.assoc]
}

// Lookup returns the stored target for pc and whether it was present.
func (b *BTB) Lookup(pc uint64) (uint64, bool) {
	if len(b.ways) == 0 {
		return 0, false
	}
	set := b.set(pc)
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			b.clock++
			set[i].lru = b.clock
			return set[i].target, true
		}
	}
	return 0, false
}

// Insert records the target of the branch at pc, replacing the LRU way.
func (b *BTB) Insert(pc, target uint64) {
	if len(b.ways) == 0 {
		return
	}
	set := b.set(pc)
	b.clock++
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == pc {
			set[i].target = target
			set[i].lru = b.clock
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lru < set[victim].lru {
			victim = i
		}
	}
	set[victim] = btbEntry{tag: pc, target: target, valid: true, lru: b.clock}
}

// Reset empties the BTB, restoring its just-constructed state.
func (b *BTB) Reset() {
	clear(b.ways)
	b.clock = 0
}

// RAS is a return-address stack with wrap-around overwrite on overflow, as
// in real hardware: pushing onto a full stack silently overwrites the oldest
// entry, and popping an empty stack returns a miss.
type RAS struct {
	stack []uint64
	top   int // number of live entries, saturates at len(stack)
	pos   int // next push index
}

// NewRAS returns a return-address stack of the given depth; depth zero
// disables it (every Pop misses).
func NewRAS(depth int) *RAS {
	return &RAS{stack: make([]uint64, depth)}
}

// Push records a return address.
func (r *RAS) Push(addr uint64) {
	if len(r.stack) == 0 {
		return
	}
	r.stack[r.pos] = addr
	r.pos = (r.pos + 1) % len(r.stack)
	if r.top < len(r.stack) {
		r.top++
	}
}

// Pop returns the most recent return address and whether one was available.
func (r *RAS) Pop() (uint64, bool) {
	if r.top == 0 {
		return 0, false
	}
	r.pos = (r.pos - 1 + len(r.stack)) % len(r.stack)
	r.top--
	return r.stack[r.pos], true
}

// Reset empties the stack, restoring its just-constructed state.
func (r *RAS) Reset() {
	clear(r.stack)
	r.top = 0
	r.pos = 0
}

// Unit bundles the direction predictor, BTB and RAS as configured, and is
// the interface the fetch stage uses.
type Unit struct {
	Dir *Gshare
	BTB *BTB
	RAS *RAS
}

// Reset restores the whole unit to its just-constructed state, so a pooled
// simulation reuses the (potentially large) predictor tables instead of
// reallocating them per run.
func (u *Unit) Reset() {
	u.Dir.Reset()
	u.BTB.Reset()
	u.RAS.Reset()
}

// New builds a prediction unit from configuration. The configuration is
// assumed validated (config.Machine.Validate, the only place that checks
// Kind); invalid geometry still returns an error rather than panicking.
func New(cfg config.Predictor) (*Unit, error) {
	dir, err := NewGshare(cfg.TableEntries, cfg.HistoryBits)
	if err != nil {
		return nil, err
	}
	btb, err := NewBTB(cfg.BTBEntries, cfg.BTBAssoc)
	if err != nil {
		return nil, err
	}
	return &Unit{Dir: dir, BTB: btb, RAS: NewRAS(cfg.RASEntries)}, nil
}
