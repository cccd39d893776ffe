package mem

import (
	"testing"

	"portsim/internal/config"
)

func newTLB(t *testing.T, entries, pageBits, penalty int) *TLB {
	t.Helper()
	tl, err := NewTLB(config.TLB{Entries: entries, PageBits: pageBits, MissPenalty: penalty})
	if err != nil {
		t.Fatal(err)
	}
	return tl
}

func TestTLBMissThenHit(t *testing.T) {
	tl := newTLB(t, 4, 12, 20)
	if got := tl.Translate(0x1234); got != 20 {
		t.Errorf("cold lookup penalty = %d, want 20", got)
	}
	if got := tl.Translate(0x1FFF); got != 0 {
		t.Errorf("same-page lookup penalty = %d, want 0", got)
	}
	if got := tl.Translate(0x2000); got != 20 {
		t.Errorf("next-page lookup penalty = %d, want 20", got)
	}
	if tl.Hits() != 1 || tl.Misses() != 2 {
		t.Errorf("hits=%d misses=%d", tl.Hits(), tl.Misses())
	}
}

func TestTLBLRUReplacement(t *testing.T) {
	tl := newTLB(t, 2, 12, 10)
	tl.Translate(0x1000) // page 1
	tl.Translate(0x2000) // page 2
	tl.Translate(0x1000) // refresh page 1
	tl.Translate(0x3000) // evicts page 2
	if got := tl.Translate(0x1000); got != 0 {
		t.Error("MRU page evicted")
	}
	if got := tl.Translate(0x2000); got == 0 {
		t.Error("LRU page survived")
	}
}

func TestTLBDisabled(t *testing.T) {
	tl := newTLB(t, 0, 0, 0)
	if got := tl.Translate(0x1000); got != 0 {
		t.Error("disabled TLB charged a penalty")
	}
	if tl.Hits() != 0 || tl.Misses() != 0 {
		t.Errorf("disabled TLB counted a lookup: hits=%d misses=%d", tl.Hits(), tl.Misses())
	}
}

func TestTLBRejectsBadConfig(t *testing.T) {
	bad := []config.TLB{
		{Entries: -1},
		{Entries: 4, PageBits: 5, MissPenalty: 10},
		{Entries: 4, PageBits: 40, MissPenalty: 10},
		{Entries: 4, PageBits: 12, MissPenalty: 0},
	}
	for i, cfg := range bad {
		if _, err := NewTLB(cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestSystemChargesTLBWalks(t *testing.T) {
	m := config.Baseline()
	m.DTLB = config.TLB{Entries: 2, PageBits: 12, MissPenalty: 50}
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	cold := s.DataAccess(0, 0x100000, false)
	if !cold.Accepted {
		t.Fatal("access refused")
	}
	// Warm the cache line, then touch it again after evicting the TLB
	// entry: the second access pays only the walk on top of a cache hit.
	warm := s.DataAccess(cold.Ready+1, 0x100000, false)
	base := warm.Ready - (cold.Ready + 1)
	s.DataAccess(warm.Ready+1, 0x200000, false)
	s.DataAccess(warm.Ready+100, 0x300000, false) // evicts page 0x100
	again := s.DataAccess(warm.Ready+1000, 0x100000, false)
	walked := again.Ready - (warm.Ready + 1000)
	if walked < base+50 {
		t.Errorf("TLB-missing hit took %d cycles, want >= %d (walk not charged?)", walked, base+50)
	}
}

func TestSystemTLBDisabledIsFree(t *testing.T) {
	m := config.Baseline()
	m.ITLB = config.TLB{}
	m.DTLB = config.TLB{}
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	r := s.DataAccess(0, 0x1000, false)
	if !r.Accepted {
		t.Fatal("access refused")
	}
	if s.DTLB.Hits() != 0 || s.DTLB.Misses() != 0 {
		t.Error("disabled DTLB counted a lookup")
	}
}

// scanTLB is the reference TLB the hinted one must match: an MRU check,
// then a full associative scan, with no hint table.
type scanTLB struct {
	pageBits     uint
	entries      []tlbEntry
	clock        uint64
	penalty      uint64
	mru          int
	hits, misses uint64
}

func (t *scanTLB) Translate(addr uint64) uint64 {
	vpn := addr >> t.pageBits
	t.clock++
	if m := &t.entries[t.mru]; m.valid && m.vpn == vpn {
		m.lru = t.clock
		t.hits++
		return 0
	}
	for i := range t.entries {
		e := &t.entries[i]
		if e.valid && e.vpn == vpn {
			e.lru = t.clock
			t.mru = i
			t.hits++
			return 0
		}
	}
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
	t.mru = victim
	return t.penalty
}

// TestTLBHintMatchesScan replays VPN streams built to collide in the hint
// table — pages that share a hint slot, working sets just above and below
// the entry count, flushes and resets — through the hinted TLB and the
// reference scan, and requires identical penalties, statistics and entry
// arrays (so identical victims and LRU stamps) after every lookup.
func TestTLBHintMatchesScan(t *testing.T) {
	const pageBits = 12
	for _, entries := range []int{1, 3, 48, 64} {
		tl := newTLB(t, entries, pageBits, 20)
		ref := &scanTLB{pageBits: pageBits, entries: make([]tlbEntry, entries), penalty: 20}
		// colliding[s] lists VPNs that share hint slot s, for four slots.
		var colliding [4][]uint64
		for vpn, short := uint64(0), 4; short > 0; vpn++ {
			if s := tl.hintSlot(vpn); s < 4 && len(colliding[s]) <= 2*entries {
				if colliding[s] = append(colliding[s], vpn); len(colliding[s]) > 2*entries {
					short--
				}
			}
		}
		rng := uint64(0x9e3779b97f4a7c15)
		for step := 0; step < 20_000; step++ {
			rng ^= rng << 13
			rng ^= rng >> 7
			rng ^= rng << 17
			var vpn uint64
			switch step / 2_000 % 4 {
			case 0: // a working set of colliding pages, one hint slot
				vpn = colliding[1][rng%uint64(entries+2)]
			case 1: // colliding pages spread over a few slots
				vpn = colliding[rng%4][rng>>8%uint64(2*entries+1)]
			case 2: // a resident working set with locality
				vpn = rng % uint64(entries)
			default: // scattered pages
				vpn = rng >> 20
			}
			addr := vpn<<pageBits | rng&0xfff
			if got, want := tl.Translate(addr), ref.Translate(addr); got != want {
				t.Fatalf("entries=%d step %d vpn %#x: penalty %d, reference %d", entries, step, vpn, got, want)
			}
			if tl.Hits() != ref.hits || tl.Misses() != ref.misses {
				t.Fatalf("entries=%d step %d: hits/misses %d/%d, reference %d/%d",
					entries, step, tl.Hits(), tl.Misses(), ref.hits, ref.misses)
			}
			for i := range ref.entries {
				if tl.entries[i] != ref.entries[i] {
					t.Fatalf("entries=%d step %d: entry %d = %+v, reference %+v",
						entries, step, i, tl.entries[i], ref.entries[i])
				}
			}
			switch step {
			case 7_000, 15_000:
				for i := range ref.entries {
					tl.entries[i].valid = false
					ref.entries[i].valid = false
				}
			case 11_000:
				tl.Reset()
				*ref = scanTLB{pageBits: pageBits, entries: make([]tlbEntry, entries), penalty: 20}
			}
		}
	}
}
