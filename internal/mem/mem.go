// Package mem implements the memory system below the first-level caches: a
// byte-addressable flat memory for functional tests, a bandwidth-limited
// DRAM timing model, and System — the composed L1I/L1D/L2/DRAM hierarchy the
// timing simulator talks to.
//
// Timing model. The hierarchy is queried with (cycle, address) pairs and
// answers with the cycle at which the data is available. Misses allocate
// MSHRs; while an MSHR for a line is outstanding, further accesses to the
// line merge into it. When all MSHRs of a level are busy the access is
// refused and the caller retries on a later cycle — exactly the back-
// pressure that makes extra cache ports valuable in the paper's study.
package mem

import (
	"fmt"

	"portsim/internal/cache"
	"portsim/internal/config"
)

// DRAM models main memory with a fixed access latency and a minimum interval
// between accesses (finite bandwidth). Requests that arrive while the
// channel is busy queue behind it.
type DRAM struct {
	latency  uint64
	interval uint64
	nextFree uint64
	accesses uint64
}

// NewDRAM constructs the DRAM model from configuration.
func NewDRAM(cfg config.Memory) *DRAM {
	return &DRAM{latency: uint64(cfg.DRAMLatency), interval: uint64(cfg.DRAMInterval)}
}

// Access schedules one memory access issued at cycle now and returns the
// cycle its data is available.
func (d *DRAM) Access(now uint64) uint64 {
	start := now
	if d.nextFree > start {
		start = d.nextFree
	}
	d.nextFree = start + d.interval
	d.accesses++
	return start + d.latency
}

// Accesses returns the number of DRAM accesses performed.
func (d *DRAM) Accesses() uint64 { return d.accesses }

// Reset restores the just-constructed state (channel idle, no accesses).
func (d *DRAM) Reset() {
	d.nextFree = 0
	d.accesses = 0
}

// neverEvent is the completion cycle of a timed cache with nothing
// scheduled: no simulated cycle reaches it. It mirrors core.NeverEvent,
// restated here because mem sits below internal/core in the import graph.
const neverEvent = ^uint64(0)

// mshrEntry is one outstanding line fill: the line address and the cycle
// the fill completes.
type mshrEntry struct {
	line, done uint64
}

// mshrFile tracks outstanding line fills for one cache level. The file is a
// small flat slice rather than a map: MSHR counts are single digits in every
// machine configuration, so a linear scan beats hashing and keeps the cycle
// loop allocation-free.
type mshrFile struct {
	limit int         // 0 means unlimited
	fills []mshrEntry // outstanding fills, oldest first
	due   uint64      // earliest done among fills, neverEvent when none
}

func newMSHRFile(limit int) *mshrFile {
	capHint := limit
	if capHint <= 0 {
		capHint = 8
	}
	return &mshrFile{limit: limit, fills: make([]mshrEntry, 0, capHint), due: neverEvent}
}

// expire drops completed fills, preserving the order of the survivors. It
// returns at once while the earliest fill is still in flight.
//
//portlint:hotpath
func (f *mshrFile) expire(now uint64) {
	if f.due > now {
		return
	}
	kept := f.fills[:0]
	due := neverEvent
	for _, e := range f.fills {
		if e.done > now {
			kept = append(kept, e)
			due = min(due, e.done)
		}
	}
	f.fills = kept
	f.due = due
}

// outstanding returns the fill-completion cycle for a line if one is in
// flight.
//
//portlint:hotpath
func (f *mshrFile) outstanding(lineAddr uint64) (uint64, bool) {
	for i := range f.fills {
		if f.fills[i].line == lineAddr {
			return f.fills[i].done, true
		}
	}
	return 0, false
}

// reset drops every outstanding fill.
func (f *mshrFile) reset() { f.fills, f.due = f.fills[:0], neverEvent }

// full reports whether a new fill cannot be accepted.
func (f *mshrFile) full() bool { return f.limit > 0 && len(f.fills) >= f.limit }

// add records a new outstanding fill.
func (f *mshrFile) add(lineAddr, done uint64) {
	f.fills = append(f.fills, mshrEntry{line: lineAddr, done: done}) //portlint:ignore hotpathclosure fills is preallocated to the MSHR limit and callers check full() first, so append never grows past its construction-time capacity
	f.due = min(f.due, done)
}

// AccessResult describes the outcome of a hierarchy access.
type AccessResult struct {
	// Accepted is false when the access was refused (MSHRs full); the
	// caller must retry on a later cycle. No state was changed.
	Accepted bool
	// Ready is the cycle the data is available (valid when Accepted).
	Ready uint64
	// L1Hit reports whether the access hit in the first-level cache
	// (including merging into an outstanding fill of the same line).
	L1Hit bool
	// MergedMSHR reports that the access merged into an in-flight fill.
	MergedMSHR bool
	// NoFill reports that the access completes without bringing a line
	// into the L1 (write-through store misses do not allocate), so no
	// refill bandwidth is owed.
	NoFill bool
	// EvictedDirty reports that the access displaced a dirty L1 line,
	// whose victim read-out costs array (port) bandwidth.
	EvictedDirty bool
}

// System is the composed memory hierarchy: split L1 caches over a unified
// L2 over DRAM. The L1 data cache is accessed through the port machinery in
// internal/core; System itself has no notion of ports — it answers "when
// would this access complete" and applies miss-level parallelism limits.
type System struct {
	L1I, L1D *cache.Level
	L2       *cache.Level
	ITLB     *TLB
	DTLB     *TLB
	dram     *DRAM

	l1iMSHR, l1dMSHR, l2MSHR *mshrFile
	l1dWriteThrough          bool

	// Writeback accounting: dirty victims consume a DRAM slot.
	l2Writebacks uint64
}

// NewSystem builds the hierarchy from a validated machine configuration.
func NewSystem(m *config.Machine) (*System, error) {
	l1i, err := cache.NewLevel(m.L1I)
	if err != nil {
		return nil, fmt.Errorf("mem: L1I: %w", err)
	}
	l1d, err := cache.NewLevel(m.L1D)
	if err != nil {
		return nil, fmt.Errorf("mem: L1D: %w", err)
	}
	l2, err := cache.NewLevel(m.Mem.L2)
	if err != nil {
		return nil, fmt.Errorf("mem: L2: %w", err)
	}
	itlb, err := NewTLB(m.ITLB)
	if err != nil {
		return nil, fmt.Errorf("mem: ITLB: %w", err)
	}
	dtlb, err := NewTLB(m.DTLB)
	if err != nil {
		return nil, fmt.Errorf("mem: DTLB: %w", err)
	}
	return &System{
		L1I:             l1i,
		L1D:             l1d,
		L2:              l2,
		ITLB:            itlb,
		DTLB:            dtlb,
		l1dWriteThrough: m.L1D.WriteThrough,
		dram:            NewDRAM(m.Mem),
		l1iMSHR:         newMSHRFile(m.L1I.MSHRs),
		l1dMSHR:         newMSHRFile(m.L1D.MSHRs),
		l2MSHR:          newMSHRFile(m.Mem.L2.MSHRs),
	}, nil
}

// DRAMAccesses returns the number of DRAM accesses (fills plus writebacks).
func (s *System) DRAMAccesses() uint64 { return s.dram.Accesses() }

// DRAMBusy reports whether the DRAM channel is occupied at cycle now —
// an access issued now would queue behind the one in flight. The cycle
// accounting layer uses it to split a memory-bound head-of-ROB wait into
// bandwidth (channel busy) versus latency (fill in flight, channel idle).
//
//portlint:hotpath
func (s *System) DRAMBusy(now uint64) bool { return s.dram.nextFree > now }

// Reset restores the whole hierarchy — caches, TLBs, MSHR files, DRAM — to
// its just-constructed state, reusing every backing array. Pooled
// simulations call this between cells so a campaign does not reallocate
// the (large) cache and predictor structures per cell.
func (s *System) Reset() {
	s.L1I.Reset()
	s.L1D.Reset()
	s.L2.Reset()
	s.ITLB.Reset()
	s.DTLB.Reset()
	s.dram.Reset()
	s.l1iMSHR.reset()
	s.l1dMSHR.reset()
	s.l2MSHR.reset()
	s.l2Writebacks = 0
}

// fillFromL2 charges the time to obtain a line from L2 (or below) starting
// at cycle `at`, installing it into L2 as needed, and returns the cycle the
// line is available to the requesting L1. It may refuse if the L2 MSHRs are
// exhausted.
func (s *System) fillFromL2(at uint64, lineAddr uint64) (ready uint64, ok bool) {
	s.l2MSHR.expire(at)
	if done, merged := s.l2MSHR.outstanding(lineAddr); merged {
		return done, true
	}
	l2lat := uint64(s.L2.Geom().HitLatency)
	if s.L2.Lookup(lineAddr, false) {
		return at + l2lat, true
	}
	if s.l2MSHR.full() {
		// Undo nothing: Lookup on a miss only counted statistics, which
		// is acceptable (a refused probe still consumed tag bandwidth).
		return 0, false
	}
	done := s.dram.Access(at + l2lat)
	if _, dirty, evicted := s.L2.Install(lineAddr, false); evicted && dirty {
		s.l2Writebacks++
		s.dram.Access(done) // writeback occupies a DRAM slot after the fill
	}
	s.l2MSHR.add(lineAddr, done)
	return done, true
}

// access is the shared L1 access path for both instruction and data sides.
func (s *System) access(l1 *cache.Level, mshr *mshrFile, now uint64, addr uint64, write bool) AccessResult {
	mshr.expire(now)
	hitLat := uint64(l1.Geom().HitLatency)
	lineAddr := l1.LineAddr(addr)
	if done, merged := mshr.outstanding(lineAddr); merged {
		// The line is being filled; data is available when the fill
		// lands, plus the normal hit latency to read it out. A write
		// merging into a fill must still mark the line dirty once
		// installed — the line was installed at allocation time, so
		// Lookup below handles the dirty bit.
		l1.Lookup(addr, write)
		return AccessResult{Accepted: true, Ready: done + hitLat, L1Hit: true, MergedMSHR: true}
	}
	if l1.Lookup(addr, write) {
		return AccessResult{Accepted: true, Ready: now + hitLat, L1Hit: true}
	}
	if mshr.full() {
		return AccessResult{}
	}
	fillReady, ok := s.fillFromL2(now+hitLat, s.L2.LineAddr(addr))
	if !ok {
		return AccessResult{}
	}
	// Install eagerly; timing is carried by the MSHR entry. A dirty L1
	// victim is written back into L2 (write-back hierarchy): charge an L2
	// tag access but no DRAM trip unless L2 later evicts it.
	evictedDirty := false
	if victim, dirty, evicted := l1.Install(addr, write); evicted && dirty {
		evictedDirty = true
		s.L2.Lookup(victim, true)
		// If the victim missed in L2 (silently dropped inclusion), the
		// writeback allocates there.
		if !s.L2.Contains(victim) {
			s.L2.Install(victim, true)
		}
	}
	mshr.add(lineAddr, fillReady)
	return AccessResult{Accepted: true, Ready: fillReady + hitLat, L1Hit: false, EvictedDirty: evictedDirty}
}

// InstFetch models an instruction fetch of the line containing pc at cycle
// now, including the ITLB lookup: a translation miss delays the fetch by
// the page-walk latency before the cache access starts.
func (s *System) InstFetch(now, pc uint64) AccessResult {
	now += s.ITLB.Translate(pc)
	return s.access(s.L1I, s.l1iMSHR, now, pc, false)
}

// DataAccess models a data access at cycle now, including the DTLB lookup;
// a translation miss serialises the page walk before the cache access.
func (s *System) DataAccess(now, addr uint64, write bool) AccessResult {
	now += s.DTLB.Translate(addr)
	if write && s.l1dWriteThrough {
		return s.writeThrough(now, addr)
	}
	return s.access(s.L1D, s.l1dMSHR, now, addr, write)
}

// writeThrough performs a store against a write-through, no-write-allocate
// L1D: the line is updated (but never dirtied) if present, and the write
// always propagates to the L2 (allocating there on a miss, with the DRAM
// fill charged to the store's completion). Store misses do not fill the L1.
func (s *System) writeThrough(now, addr uint64) AccessResult {
	hitLat := uint64(s.L1D.Geom().HitLatency)
	hit := s.L1D.Lookup(addr, false) // write-through lines stay clean
	l2Line := s.L2.LineAddr(addr)
	ready, ok := s.fillFromL2(now+hitLat, l2Line)
	if !ok {
		return AccessResult{}
	}
	s.L2.Lookup(addr, true) // the write dirties the L2 copy
	if ready < now+hitLat {
		ready = now + hitLat
	}
	return AccessResult{Accepted: true, Ready: ready, L1Hit: hit, NoFill: true}
}

// OutstandingDataMisses returns the number of in-flight L1D fills at cycle
// now (after expiring completed ones), used by statistics and tests.
func (s *System) OutstandingDataMisses(now uint64) int {
	s.l1dMSHR.expire(now)
	return len(s.l1dMSHR.fills)
}
