package core

import (
	"fmt"
	"math"
)

// NeverEvent is the completion cycle of a timed cache with nothing
// scheduled (the store buffer's nextExpiry, the port's refillDue): no
// simulated cycle reaches it, so a "now >= due" test never fires.
const NeverEvent uint64 = math.MaxUint64

// maxChunkBytes bounds the port width the store buffer supports; entries
// carry fixed-size arrays to keep the simulator allocation-free.
const maxChunkBytes = 64

// combineHoldCycles is how long a young entry is held back from draining to
// give later stores a chance to combine into it. Holding is only worthwhile
// while the buffer has headroom; see MemPort.drainStores and HoldActive.
const combineHoldCycles = 6

// SBEntry is a materialized view of one store-buffer entry: an aligned chunk
// with a byte mask of the written bytes and, optionally, the written data
// (tests run the buffer with data to prove byte-exactness; the timing
// simulator runs address-only). Expire returns entries in this form; while
// an entry occupies the buffer it is addressed by index through the At
// accessors instead.
type SBEntry struct {
	ChunkAddr uint64
	// Mask has bit i set when byte i of the chunk has been written.
	Mask uint64
	// Data holds the written bytes at their chunk offsets (valid where
	// Mask is set) when the buffer runs in data-carrying mode.
	Data [maxChunkBytes]byte
}

// StoreBuffer is the decoupling buffer between commit and the cache port.
// Entries are drained oldest-first; with combining enabled, at most one
// entry exists per chunk and later stores to the chunk merge into it, so one
// port write retires several program stores.
//
// Entry state lives in parallel arrays (struct-of-arrays), oldest first at
// the low indices: the drain-ordering and probe scans touch only the one or
// two fields they test, so the common walks (chunk address + issued flag)
// stay in dense cache lines instead of striding over 90-byte records. The
// 64-byte data images sit in their own array and are only touched by the
// data-carrying test mode.
type StoreBuffer struct {
	chunkBytes uint64
	capacity   int
	combining  bool

	// Parallel per-entry state; index i < n describes occupying entry i.
	// Slices are allocated at full capacity up front so Insert and the
	// Expire compaction never grow anything.
	chunkAddr  []uint64
	mask       []uint64
	seq        []uint64
	insertedAt []uint64
	drainDone  []uint64 // valid once issued
	issued     []bool
	data       [][maxChunkBytes]byte

	n       int
	nextSeq uint64

	// nextExpiry caches the minimum drainDone over issued entries
	// (NeverEvent when none are issued) so Expire can prove "nothing to
	// remove" without walking the buffer.
	nextExpiry uint64

	// drainCand memoises NextDrain's answer between mutations: the scan
	// reads only chunkAddr, issued and n, so the result stays valid until
	// Insert, MarkIssued, Expire compaction or Reset touches them. The
	// arbiter asks every cycle while the buffer sits waiting, which without
	// the memo is a quadratic rescan.
	drainCand      int
	drainCandValid bool

	expired []SBEntry // scratch returned by Expire, reused across cycles

	inserts, combined, drains, forwards uint64
	occupancySamples, occupancySum      uint64
}

// NewStoreBuffer returns a store buffer of the given capacity for
// chunkBytes-wide ports. It panics on invalid sizing, which indicates a
// configuration-validation bug upstream.
func NewStoreBuffer(capacity, chunkBytes int, combining bool) *StoreBuffer {
	if capacity < 1 {
		panic("core: store buffer capacity must be positive")
	}
	if chunkBytes < 8 || chunkBytes > maxChunkBytes || chunkBytes&(chunkBytes-1) != 0 {
		panic(fmt.Sprintf("core: unsupported chunk width %d", chunkBytes))
	}
	return &StoreBuffer{
		chunkBytes: uint64(chunkBytes),
		capacity:   capacity,
		combining:  combining,
		chunkAddr:  make([]uint64, capacity),
		mask:       make([]uint64, capacity),
		seq:        make([]uint64, capacity),
		insertedAt: make([]uint64, capacity),
		drainDone:  make([]uint64, capacity),
		issued:     make([]bool, capacity),
		data:       make([][maxChunkBytes]byte, capacity),
		nextExpiry: NeverEvent,
		expired:    make([]SBEntry, capacity),
	}
}

// Reset empties the buffer and zeroes the statistics, restoring the
// just-constructed state while keeping the entry storage.
func (b *StoreBuffer) Reset() {
	b.n = 0
	b.nextSeq = 0
	b.nextExpiry = NeverEvent
	b.drainCandValid = false
	b.inserts, b.combined, b.drains, b.forwards = 0, 0, 0, 0
	b.occupancySamples, b.occupancySum = 0, 0
}

// ChunkAddr returns addr rounded down to its aligned chunk.
func (b *StoreBuffer) ChunkAddr(addr uint64) uint64 { return addr &^ (b.chunkBytes - 1) }

func maskFor(offset uint64, size int) uint64 {
	return ((uint64(1) << size) - 1) << offset
}

// CanAccept reports whether a store of size bytes at addr can enter the
// buffer this cycle: either it combines into an existing un-issued entry for
// its chunk, or a free slot exists.
func (b *StoreBuffer) CanAccept(addr uint64, size int) bool {
	if b.combining {
		chunk := b.ChunkAddr(addr)
		for i := 0; i < b.n; i++ {
			if b.chunkAddr[i] == chunk && !b.issued[i] {
				return true
			}
		}
	}
	return b.n < b.capacity
}

// Insert adds a committed store to the buffer. data may be nil (timing-only
// mode) or exactly size bytes (data-carrying mode). It returns whether the
// store was merged into an existing entry. Callers must check CanAccept
// first; Insert panics when the buffer cannot take the store, because a
// lost store would silently corrupt the simulation.
func (b *StoreBuffer) Insert(now, addr uint64, size int, data []byte) (combined bool) {
	if size <= 0 || size > 8 {
		panic(fmt.Sprintf("core: store size %d unsupported", size))
	}
	if data != nil && len(data) != size {
		panic("core: data length disagrees with store size")
	}
	chunk := b.ChunkAddr(addr)
	offset := addr - chunk //portlint:ignore cyclemath chunk is addr with low bits masked off, so chunk <= addr
	mask := maskFor(offset, size)
	b.inserts++
	if b.combining {
		for i := 0; i < b.n; i++ {
			if b.chunkAddr[i] == chunk && !b.issued[i] {
				b.mask[i] |= mask
				if data != nil {
					copy(b.data[i][offset:], data)
				}
				b.combined++
				return true
			}
		}
	}
	if b.n >= b.capacity {
		panic("core: Insert on a full store buffer; call CanAccept first")
	}
	i := b.n
	b.n++
	b.drainCandValid = false
	b.chunkAddr[i] = chunk
	b.mask[i] = mask
	b.seq[i] = b.nextSeq
	b.nextSeq++
	b.insertedAt[i] = now
	b.issued[i] = false
	if data != nil {
		b.data[i] = [maxChunkBytes]byte{}
		copy(b.data[i][offset:], data)
	}
	return false
}

// Probe checks a load of size bytes at addr against every occupying entry
// (including issued-but-incomplete ones, whose data is not yet in the
// cache). It returns:
//
//   - forward=true when the youngest matching entry covers every byte of the
//     load: the load can be satisfied from the buffer without a port access.
//   - conflict=true when some entry overlaps the load but does not fully
//     cover it: the load must wait for the entry to drain.
//
// With combining enabled there is at most one un-issued entry per chunk, but
// issued entries for the same chunk may coexist with it; the youngest match
// wins, which is the correct per-location ordering because younger entries
// hold the newer bytes.
func (b *StoreBuffer) Probe(addr uint64, size int) (forward, conflict bool) {
	chunk := b.ChunkAddr(addr)
	offset := addr - chunk //portlint:ignore cyclemath chunk is addr with low bits masked off, so chunk <= addr
	mask := maskFor(offset, size)
	// Scan youngest-first so the newest matching entry decides.
	for i := b.n - 1; i >= 0; i-- {
		if b.chunkAddr[i] != chunk || b.mask[i]&mask == 0 {
			continue
		}
		if b.mask[i]&mask == mask {
			b.forwards++
			return true, false
		}
		return false, true
	}
	return false, false
}

// ReadForward copies the buffered bytes for a load previously approved by
// Probe (forward=true) out of the youngest covering entry. It is only
// meaningful in data-carrying mode and returns false if no covering entry
// exists (the caller raced a drain — a bug Probe/Drain sequencing prevents).
func (b *StoreBuffer) ReadForward(addr uint64, p []byte) bool {
	chunk := b.ChunkAddr(addr)
	offset := addr - chunk //portlint:ignore cyclemath chunk is addr with low bits masked off, so chunk <= addr
	mask := maskFor(offset, len(p))
	for i := b.n - 1; i >= 0; i-- {
		if b.chunkAddr[i] == chunk && b.mask[i]&mask == mask {
			copy(p, b.data[i][offset:offset+uint64(len(p))])
			return true
		}
	}
	return false
}

// NextDrain returns the index of the oldest un-issued entry whose chunk has
// no older write still in flight, or -1 when none is ready. The same-chunk
// guard preserves per-location ordering: without it, a younger store that
// hits in the cache could complete before an older store to the same chunk
// that missed, leaving the older bytes as the final value. The returned
// index is valid until the next mutation.
func (b *StoreBuffer) NextDrain() int {
	if b.drainCandValid {
		return b.drainCand
	}
	cand := -1
	for i := 0; i < b.n; i++ {
		if b.issued[i] {
			continue
		}
		blocked := false
		for j := 0; j < i; j++ {
			if b.chunkAddr[j] == b.chunkAddr[i] {
				blocked = true
				break
			}
		}
		if !blocked {
			cand = i
			break
		}
	}
	b.drainCand = cand
	b.drainCandValid = true
	return cand
}

// MarkIssued records that entry i's port write was sent at some cycle and
// completes at done. The entry keeps occupying the buffer until Expire
// removes it at or after done.
func (b *StoreBuffer) MarkIssued(i int, done uint64) {
	b.issued[i] = true
	b.drainCandValid = false
	b.drainDone[i] = done
	if done < b.nextExpiry {
		b.nextExpiry = done
	}
	b.drains++
}

// ChunkAddrAt, MaskAt and SeqAt expose occupying entry i's identity for the
// port arbiter and its diagnostics.
func (b *StoreBuffer) ChunkAddrAt(i int) uint64 { return b.chunkAddr[i] }
func (b *StoreBuffer) MaskAt(i int) uint64      { return b.mask[i] }
func (b *StoreBuffer) SeqAt(i int) uint64       { return b.seq[i] }

// HoldActive reports whether the combining hold policy keeps entry i out of
// drain arbitration at cycle now: with combining on and the buffer no more
// than a quarter full, a young entry waits up to combineHoldCycles for later
// stores to merge into it before competing for the port.
func (b *StoreBuffer) HoldActive(i int, now uint64) bool {
	if !b.combining || b.n > b.capacity/4 {
		return false
	}
	return now < b.insertedAt[i]+combineHoldCycles
}

// LatestDrainDone returns the largest completion cycle over issued entries,
// or 0 when none are in flight. End-of-run draining uses it to fast-forward
// past every write already on its way to the cache.
func (b *StoreBuffer) LatestDrainDone() uint64 {
	var latest uint64
	for i := 0; i < b.n; i++ {
		if b.issued[i] && b.drainDone[i] > latest {
			latest = b.drainDone[i]
		}
	}
	return latest
}

// Expire removes issued entries whose cache writes have completed by cycle
// now, returning them (oldest first) so the caller can apply their data in
// data-carrying mode. The returned slice aliases internal scratch that the
// next Expire call overwrites: consume it before calling Expire again.
//
//portlint:hotpath
func (b *StoreBuffer) Expire(now uint64) []SBEntry {
	if now < b.nextExpiry {
		// No issued entry has completed yet; the buffer is untouched.
		return b.expired[:0]
	}
	k := 0
	w := 0
	next := NeverEvent
	for i := 0; i < b.n; i++ {
		if b.issued[i] && b.drainDone[i] <= now {
			out := &b.expired[k]
			out.ChunkAddr = b.chunkAddr[i]
			out.Mask = b.mask[i]
			out.Data = b.data[i]
			k++
			continue
		}
		if b.issued[i] && b.drainDone[i] < next {
			next = b.drainDone[i]
		}
		if w != i {
			b.chunkAddr[w] = b.chunkAddr[i]
			b.mask[w] = b.mask[i]
			b.seq[w] = b.seq[i]
			b.insertedAt[w] = b.insertedAt[i]
			b.drainDone[w] = b.drainDone[i]
			b.issued[w] = b.issued[i]
			b.data[w] = b.data[i]
		}
		w++
	}
	b.n = w
	b.nextExpiry = next
	b.drainCandValid = false
	return b.expired[:k]
}

// SampleOccupancy records the current occupancy for the utilisation stats.
func (b *StoreBuffer) SampleOccupancy() {
	b.occupancySamples++
	b.occupancySum += uint64(b.n)
}

// Len returns the number of occupying entries.
func (b *StoreBuffer) Len() int { return b.n }

// Cap returns the buffer capacity.
func (b *StoreBuffer) Cap() int { return b.capacity }

// Inserts, Combined, Drains and Forwards return statistics.
// StoresPerDrain is the headline combining metric: program stores retired
// per port write.
func (b *StoreBuffer) Inserts() uint64  { return b.inserts }
func (b *StoreBuffer) Combined() uint64 { return b.combined }
func (b *StoreBuffer) Drains() uint64   { return b.drains }
func (b *StoreBuffer) Forwards() uint64 { return b.forwards }

// StoresPerDrain returns inserts/drains, zero when nothing drained yet.
func (b *StoreBuffer) StoresPerDrain() float64 {
	if b.drains == 0 {
		return 0
	}
	return float64(b.inserts) / float64(b.drains)
}

// MeanOccupancy returns the average sampled occupancy.
func (b *StoreBuffer) MeanOccupancy() float64 {
	if b.occupancySamples == 0 {
		return 0
	}
	return float64(b.occupancySum) / float64(b.occupancySamples)
}
