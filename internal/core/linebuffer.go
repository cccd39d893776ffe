// Package core implements the paper's contribution: the machinery that
// raises the efficiency of a single data-cache port to near dual-port
// performance. Three cooperating mechanisms are provided:
//
//   - LineBufferSet ("load-all"): when a load uses a wide cache port, the
//     entire aligned port-width chunk is read out and latched; subsequent
//     loads that hit a latched chunk are satisfied without consuming a port.
//   - StoreBuffer: a decoupling buffer between instruction commit and the
//     cache port that smooths store bursts and, with combining enabled,
//     coalesces stores to the same aligned chunk so one port write retires
//     several program stores.
//   - MemPort: the per-cycle port arbiter that ties the two to the cache
//     hierarchy, giving loads priority and draining stores into idle port
//     slots.
package core

// LineBufferSet is a small fully associative set of load-all buffers. Each
// buffer holds the address of one aligned chunk of port-width bytes plus the
// cycle at which its data became available. Replacement is true LRU.
//
// The per-buffer state is held as parallel arrays (struct-of-arrays) rather
// than a slice of buffer structs: Lookup — the per-load hot path — scans
// only the chunk addresses and validity bits, so the probe walks two dense
// arrays instead of striding over four-field records it mostly ignores.
//
// Coherence: the set must be invalidated on (a) any store to a latched chunk
// and (b) replacement of the underlying cache line; MemPort wires both. The
// buffers therefore never supply stale data — a property checked by the
// package tests against a functional cache.
type LineBufferSet struct {
	chunkBytes uint64

	// Parallel per-buffer state; every slice has the same length (the
	// buffer count) and index i describes buffer i.
	chunkAddr []uint64
	readyAt   []uint64
	lru       []uint64
	valid     []bool

	clock uint64

	hits, fills, invalidations, misses uint64
}

// NewLineBufferSet returns a set of n load-all buffers for chunkBytes-wide
// ports. n == 0 yields a disabled set on which Lookup always misses; that is
// the baseline (no load-all) configuration.
func NewLineBufferSet(n int, chunkBytes int) *LineBufferSet {
	if n < 0 {
		n = 0
	}
	return &LineBufferSet{
		chunkBytes: uint64(chunkBytes),
		chunkAddr:  make([]uint64, n),
		readyAt:    make([]uint64, n),
		lru:        make([]uint64, n),
		valid:      make([]bool, n),
	}
}

// ChunkAddr returns addr rounded down to its aligned port-width chunk.
func (s *LineBufferSet) ChunkAddr(addr uint64) uint64 { return addr &^ (s.chunkBytes - 1) }

// Lookup probes the set for the chunk containing addr. On a hit it refreshes
// LRU state and returns the cycle the chunk's data became (or becomes)
// available; the caller takes max(now, readyAt) as the load's data-ready
// time. Accesses are at most 8 bytes and naturally aligned, so they never
// cross a chunk boundary.
//
//portlint:hotpath
func (s *LineBufferSet) Lookup(addr uint64) (readyAt uint64, hit bool) {
	chunk := s.ChunkAddr(addr)
	for i := range s.chunkAddr {
		if s.valid[i] && s.chunkAddr[i] == chunk {
			s.clock++
			s.lru[i] = s.clock
			s.hits++
			return s.readyAt[i], true
		}
	}
	s.misses++
	return 0, false
}

// Fill latches the chunk containing addr, with its data available at
// readyAt, replacing the LRU buffer. Filling an already-latched chunk just
// refreshes it. Fill is a no-op on a disabled set.
//
//portlint:hotpath
func (s *LineBufferSet) Fill(addr, readyAt uint64) {
	if len(s.chunkAddr) == 0 {
		return
	}
	chunk := s.ChunkAddr(addr)
	s.clock++
	victim := 0
	for i := range s.chunkAddr {
		if s.valid[i] && s.chunkAddr[i] == chunk {
			s.readyAt[i] = readyAt
			s.lru[i] = s.clock
			return
		}
		if !s.valid[i] {
			victim = i
			continue
		}
		if s.valid[victim] && s.lru[i] < s.lru[victim] {
			victim = i
		}
	}
	s.chunkAddr[victim] = chunk
	s.readyAt[victim] = readyAt
	s.lru[victim] = s.clock
	s.valid[victim] = true
	s.fills++
}

// InvalidateChunk drops the buffer latching the chunk that contains addr, if
// any. Called for every store that enters the store buffer.
//
//portlint:hotpath
func (s *LineBufferSet) InvalidateChunk(addr uint64) {
	chunk := s.ChunkAddr(addr)
	for i := range s.chunkAddr {
		if s.valid[i] && s.chunkAddr[i] == chunk {
			s.valid[i] = false
			s.invalidations++
			return
		}
	}
}

// InvalidateLine drops every buffer whose chunk lies inside the cache line
// [lineAddr, lineAddr+lineBytes). Called from the L1D eviction hook.
//
//portlint:hotpath
func (s *LineBufferSet) InvalidateLine(lineAddr uint64, lineBytes int) {
	end := lineAddr + uint64(lineBytes)
	for i := range s.chunkAddr {
		if s.valid[i] && s.chunkAddr[i] >= lineAddr && s.chunkAddr[i] < end {
			s.valid[i] = false
			s.invalidations++
		}
	}
}

// InvalidateAll empties the set (used at kernel entry in OS-disruption
// experiments and by tests).
func (s *LineBufferSet) InvalidateAll() {
	for i := range s.valid {
		if s.valid[i] {
			s.valid[i] = false
			s.invalidations++
		}
	}
}

// Reset empties the set and zeroes the statistics, restoring the
// just-constructed state (unlike InvalidateAll, which counts the
// invalidations as simulated events).
func (s *LineBufferSet) Reset() {
	clear(s.chunkAddr)
	clear(s.readyAt)
	clear(s.lru)
	clear(s.valid)
	s.clock = 0
	s.hits, s.fills, s.invalidations, s.misses = 0, 0, 0, 0
}

// Size returns the number of buffers.
func (s *LineBufferSet) Size() int { return len(s.chunkAddr) }

// Live returns the number of currently valid buffers.
func (s *LineBufferSet) Live() int {
	n := 0
	for i := range s.valid {
		if s.valid[i] {
			n++
		}
	}
	return n
}

// Hits, Misses, Fills and Invalidations return statistics.
func (s *LineBufferSet) Hits() uint64          { return s.hits }
func (s *LineBufferSet) Misses() uint64        { return s.misses }
func (s *LineBufferSet) Fills() uint64         { return s.fills }
func (s *LineBufferSet) Invalidations() uint64 { return s.invalidations }

// HitRate returns hits/(hits+misses), zero when unused.
func (s *LineBufferSet) HitRate() float64 {
	total := s.hits + s.misses
	if total == 0 {
		return 0
	}
	return float64(s.hits) / float64(total)
}
