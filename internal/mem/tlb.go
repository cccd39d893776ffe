package mem

import (
	"fmt"

	"portsim/internal/config"
)

// TLB is a fully associative translation lookaside buffer with true-LRU
// replacement. The simulator charges a fixed page-walk penalty on a miss;
// translations themselves are identity-mapped (the timing model does not
// need physical addresses, only the hit/miss behaviour). OS-heavy workloads
// with scattered footprints stress it exactly as the paper's methodology
// intends.
type TLB struct {
	pageBits uint
	entries  []tlbEntry
	clock    uint64
	penalty  uint64

	// hint is a direct-mapped guess over the fully associative entries:
	// hint[hintSlot(vpn)] is the entry that last hit or filled a page
	// hashing to that slot. A hint is used only after that entry's valid
	// bit and VPN check out, so a stale or colliding hint costs the scan
	// below, never a wrong answer. The page last hit or filled always finds
	// itself here, so the hint also serves back-to-back lookups of one
	// page. Pure fast path: hit/miss outcomes, LRU stamps and victim
	// choice are identical to the scan's.
	hint      []int32
	hintShift uint

	hits, misses uint64
}

type tlbEntry struct {
	vpn   uint64
	lru   uint64
	valid bool
}

// NewTLB builds a TLB from configuration; a zero entry count returns a
// disabled TLB whose Translate never charges a penalty.
func NewTLB(cfg config.TLB) (*TLB, error) {
	if cfg.Entries < 0 {
		return nil, fmt.Errorf("mem: negative TLB size")
	}
	if cfg.Entries > 0 {
		if cfg.PageBits < 10 || cfg.PageBits > 30 {
			return nil, fmt.Errorf("mem: TLB page size 2^%d out of range", cfg.PageBits)
		}
		if cfg.MissPenalty < 1 {
			return nil, fmt.Errorf("mem: TLB miss penalty must be positive")
		}
	}
	// Four hint slots per entry keep colliding resident pages rare.
	nhint, shift := 1, uint(64)
	for nhint < 4*cfg.Entries {
		nhint <<= 1
		shift--
	}
	return &TLB{
		pageBits:  uint(cfg.PageBits),
		entries:   make([]tlbEntry, cfg.Entries),
		penalty:   uint64(cfg.MissPenalty),
		hint:      make([]int32, nhint),
		hintShift: shift,
	}, nil
}

// Translate looks up the page of addr and returns the page-walk penalty in
// cycles: zero on a hit (or when disabled), the configured walk latency on
// a miss (after which the translation is resident).
func (t *TLB) Translate(addr uint64) (penalty uint64) {
	if len(t.entries) == 0 {
		return 0
	}
	vpn := addr >> t.pageBits
	t.clock++
	h := &t.hint[t.hintSlot(vpn)]
	if e := &t.entries[*h]; e.valid && e.vpn == vpn {
		e.lru = t.clock
		t.hits++
		return 0
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.clock
			*h = int32(i)
			t.hits++
			return 0
		}
	}
	// Miss: pick the replacement victim — the last invalid entry if any
	// (matching the historical single-pass scan), else true LRU.
	victim := 0
	for i := range t.entries {
		e := &t.entries[i]
		if !e.valid {
			victim = i
			continue
		}
		if t.entries[victim].valid && e.lru < t.entries[victim].lru {
			victim = i
		}
	}
	t.misses++
	t.entries[victim] = tlbEntry{vpn: vpn, lru: t.clock, valid: true}
	*h = int32(victim)
	return t.penalty
}

// hintMul is the multiplier of a Fibonacci hash. Workload regions start at
// aligned bases, so their pages share low VPN bits; a hint table indexed
// by those bits makes a stack page and a heap page evict each other's
// hints, and every such lookup falls back to the scan.
const hintMul = 0x9e3779b97f4a7c15

// hintSlot maps a VPN to its hint slot: the top bits of its hash.
func (t *TLB) hintSlot(vpn uint64) uint64 { return vpn * hintMul >> t.hintShift }

// Reset invalidates every entry and zeroes the statistics, restoring the
// just-constructed state for pooled reuse.
func (t *TLB) Reset() {
	clear(t.entries)
	clear(t.hint)
	t.clock = 0
	t.hits, t.misses = 0, 0
}

// Hits and Misses return lookup statistics.
func (t *TLB) Hits() uint64   { return t.hits }
func (t *TLB) Misses() uint64 { return t.misses }
