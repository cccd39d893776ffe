// Package cache implements the set-associative cache models used by the
// simulator. Two views are provided over the same geometry and replacement
// machinery:
//
//   - Level: a tag/state model for the timing simulator. It tracks presence,
//     dirtiness and LRU order, and reports evictions so higher layers (the
//     load-all line buffers of internal/core) can keep themselves coherent.
//   - Functional: a data-carrying write-back cache over a backing Store,
//     used by correctness tests to prove that the port-efficiency machinery
//     (store combining, line buffering) never corrupts the memory image.
//
// All caches are write-back, write-allocate, with true-LRU replacement, as
// in the paper's R10000-class memory system.
package cache

import (
	"fmt"

	"portsim/internal/config"
)

// Line states, held in the low stateBits bits of a way's stamp.
const (
	stateInvalid uint64 = iota
	stateClean
	stateDirty

	stateBits = 2
	stateMask = 1<<stateBits - 1
)

// A way is one tag slot: its tag, and a stamp packing the LRU clock of
// its last touch above its line state (clock<<stateBits | state). Two words
// with no padding keep a pooled core's tag arrays at 16 bytes per line.
// Stamps compare in clock order: the state bits sit below the clock, and no
// two valid ways share a clock tick. The clock advances once per access, so
// it cannot come near 2^62.
type way struct {
	tag   uint64
	stamp uint64
}

func (w *way) state() uint64 { return w.stamp & stateMask }

// touch records an access at clock, dirtying the line on a write.
func (w *way) touch(clock uint64, write bool) {
	st := w.state()
	if write {
		st = stateDirty
	}
	w.stamp = clock<<stateBits | st
}

// Level is the tag/state cache model. It is not safe for concurrent use;
// the model runs on one goroutine by design (cycle-driven determinism).
type Level struct {
	geom    config.CacheGeom
	ways    []way // set s occupies ways[s*Assoc : (s+1)*Assoc]
	setMask uint64
	offBits uint
	clock   uint64

	// Statistics, exported through accessors.
	hits, misses, writebacks uint64

	// OnEvict, when non-nil, is invoked with the line-aligned address of
	// every line that replacement evicts.
	// internal/core uses it to invalidate load-all line buffers whose
	// backing line is gone.
	OnEvict func(lineAddr uint64)
}

// NewLevel constructs a cache level from validated geometry.
func NewLevel(geom config.CacheGeom) (*Level, error) {
	if geom.SizeBytes <= 0 || geom.Assoc <= 0 || geom.LineBytes <= 0 {
		return nil, fmt.Errorf("cache: non-positive geometry %+v", geom)
	}
	if geom.SizeBytes%(geom.Assoc*geom.LineBytes) != 0 {
		return nil, fmt.Errorf("cache: size %d not divisible by assoc*line", geom.SizeBytes)
	}
	nsets := geom.Sets()
	if nsets&(nsets-1) != 0 {
		return nil, fmt.Errorf("cache: set count %d not a power of two", nsets)
	}
	if geom.LineBytes&(geom.LineBytes-1) != 0 {
		return nil, fmt.Errorf("cache: line size %d not a power of two", geom.LineBytes)
	}
	offBits := uint(0)
	for 1<<offBits < geom.LineBytes {
		offBits++
	}
	return &Level{
		geom:    geom,
		ways:    make([]way, nsets*geom.Assoc),
		setMask: uint64(nsets - 1),
		offBits: offBits,
	}, nil
}

// Reset invalidates every line and zeroes the statistics, restoring the
// level to its just-constructed state (the OnEvict hook is retained, and
// does not fire: a reset is a teardown, not a replacement). Pooled
// simulations reuse the tag arrays across runs through this.
func (l *Level) Reset() {
	clear(l.ways)
	l.clock = 0
	l.hits, l.misses, l.writebacks = 0, 0, 0
}

// Geom returns the level's geometry.
func (l *Level) Geom() config.CacheGeom { return l.geom }

// LineAddr returns addr rounded down to its line.
func (l *Level) LineAddr(addr uint64) uint64 { return addr &^ (uint64(l.geom.LineBytes) - 1) }

func (l *Level) tagOf(addr uint64) uint64 { return addr >> l.offBits }

// setBase returns the flat index of the first way of addr's set.
func (l *Level) setBase(addr uint64) int {
	return int((addr>>l.offBits)&l.setMask) * l.geom.Assoc
}

// find returns the flat index of the valid way holding addr's line, or -1.
func (l *Level) find(addr uint64) int {
	base := l.setBase(addr)
	set := l.ways[base : base+l.geom.Assoc]
	tag := l.tagOf(addr)
	for i := range set {
		if set[i].tag == tag && set[i].state() != stateInvalid {
			return base + i
		}
	}
	return -1
}

// Lookup probes the cache for addr. On a hit it refreshes LRU state and, for
// write accesses, marks the line dirty. It returns whether the line was
// present.
func (l *Level) Lookup(addr uint64, write bool) bool {
	i := l.find(addr)
	if i < 0 {
		l.misses++
		return false
	}
	l.clock++
	l.ways[i].touch(l.clock, write)
	l.hits++
	return true
}

// Contains probes without updating LRU or statistics.
func (l *Level) Contains(addr uint64) bool { return l.find(addr) >= 0 }

// Install brings the line containing addr into the cache (dirty if the
// triggering access was a write, per write-allocate). If a valid line is
// displaced, Install returns its line address and whether it was dirty
// (requiring a writeback). Installing an already-present line just refreshes
// its state.
func (l *Level) Install(addr uint64, write bool) (victimAddr uint64, victimDirty bool, evicted bool) {
	_, victimAddr, victimDirty, evicted = l.install(addr, write)
	return victimAddr, victimDirty, evicted
}

// install is Install that also returns the flat index of the way now
// holding addr's line.
func (l *Level) install(addr uint64, write bool) (idx int, victimAddr uint64, victimDirty bool, evicted bool) {
	base := l.setBase(addr)
	set := l.ways[base : base+l.geom.Assoc]
	tag := l.tagOf(addr)
	l.clock++
	victim := 0
	for i := range set {
		st := set[i].state()
		if st != stateInvalid && set[i].tag == tag {
			set[i].touch(l.clock, write)
			return base + i, 0, false, false
		}
		if st == stateInvalid {
			victim = i
			// Keep scanning: the line might still be present in a
			// later way, which must win over filling a hole.
			continue
		}
		if set[victim].state() != stateInvalid && set[i].stamp < set[victim].stamp {
			victim = i
		}
	}
	v := &set[victim]
	if st := v.state(); st != stateInvalid {
		victimAddr = l.lineAddrFromTag(v.tag)
		victimDirty = st == stateDirty
		evicted = true
		if victimDirty {
			l.writebacks++
		}
		if l.OnEvict != nil {
			l.OnEvict(victimAddr)
		}
	}
	v.tag = tag
	st := stateClean
	if write {
		st = stateDirty
	}
	v.stamp = l.clock<<stateBits | st
	return base + victim, victimAddr, victimDirty, evicted
}

func (l *Level) lineAddrFromTag(tag uint64) uint64 { return tag << l.offBits }

// Hits, Misses and Writebacks return access statistics.
func (l *Level) Hits() uint64       { return l.hits }
func (l *Level) Misses() uint64     { return l.misses }
func (l *Level) Writebacks() uint64 { return l.writebacks }
