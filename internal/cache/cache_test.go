package cache

import (
	"testing"
	"unsafe"

	"portsim/internal/config"
)

func smallGeom() config.CacheGeom {
	// 2 sets, 2 ways, 32-byte lines => 128 bytes total.
	return config.CacheGeom{SizeBytes: 128, Assoc: 2, LineBytes: 32, HitLatency: 1}
}

func TestNewLevelRejectsBadGeometry(t *testing.T) {
	bad := []config.CacheGeom{
		{SizeBytes: 0, Assoc: 1, LineBytes: 32},
		{SizeBytes: 128, Assoc: 0, LineBytes: 32},
		{SizeBytes: 100, Assoc: 2, LineBytes: 32},
		{SizeBytes: 96, Assoc: 1, LineBytes: 32},  // 3 sets
		{SizeBytes: 120, Assoc: 1, LineBytes: 24}, // non-pow2 line
	}
	for i, g := range bad {
		if _, err := NewLevel(g); err == nil {
			t.Errorf("geometry %d accepted: %+v", i, g)
		}
	}
}

func TestLineAddr(t *testing.T) {
	l, err := NewLevel(smallGeom())
	if err != nil {
		t.Fatal(err)
	}
	if got := l.LineAddr(0x1234); got != 0x1220 {
		t.Errorf("LineAddr(0x1234) = %#x, want 0x1220", got)
	}
	if got := l.LineAddr(0x1220); got != 0x1220 {
		t.Errorf("LineAddr of aligned address moved to %#x", got)
	}
}

func TestLookupMissThenHit(t *testing.T) {
	l, _ := NewLevel(smallGeom())
	if l.Lookup(0x100, false) {
		t.Fatal("empty cache hit")
	}
	l.Install(0x100, false)
	if !l.Lookup(0x100, false) {
		t.Fatal("installed line missed")
	}
	if !l.Lookup(0x11f, false) {
		t.Fatal("other byte of same line missed")
	}
	if l.Lookup(0x120, false) {
		t.Fatal("adjacent line hit spuriously")
	}
	if l.Hits() != 2 || l.Misses() != 2 {
		t.Errorf("hits=%d misses=%d, want 2 and 2", l.Hits(), l.Misses())
	}
}

func TestWriteMakesDirtyAndEvictsAsWriteback(t *testing.T) {
	l, _ := NewLevel(smallGeom())
	// Set index = (addr>>5)&1. Addresses 0x00, 0x40, 0x80 share set 0.
	l.Install(0x00, true) // dirty
	l.Install(0x40, false)
	victim, dirty, evicted := l.Install(0x80, false)
	if !evicted || victim != 0x00 || !dirty {
		t.Errorf("Install eviction = (%#x,%v,%v), want dirty eviction of 0x00", victim, dirty, evicted)
	}
	if l.Writebacks() != 1 {
		t.Errorf("writebacks = %d, want 1", l.Writebacks())
	}
}

func TestLookupWriteDirtiesExistingLine(t *testing.T) {
	l, _ := NewLevel(smallGeom())
	l.Install(0x00, false)
	l.Lookup(0x08, true) // store hit dirties the line
	l.Install(0x40, false)
	_, dirty, evicted := l.Install(0x80, false)
	if !evicted || !dirty {
		t.Error("line dirtied by store hit was not written back on eviction")
	}
}

func TestLRUOrder(t *testing.T) {
	l, _ := NewLevel(smallGeom())
	l.Install(0x00, false)
	l.Install(0x40, false)
	l.Lookup(0x00, false) // 0x00 becomes MRU
	victim, _, evicted := l.Install(0x80, false)
	if !evicted || victim != 0x40 {
		t.Errorf("victim = %#x, want LRU line 0x40", victim)
	}
	if !l.Contains(0x00) {
		t.Error("MRU line evicted")
	}
}

func TestInstallPrefersInvalidWay(t *testing.T) {
	l, _ := NewLevel(smallGeom())
	l.Install(0x00, false)
	if _, _, evicted := l.Install(0x40, false); evicted {
		t.Error("installed into a set with a free way yet evicted something")
	}
	if !l.Contains(0x00) || !l.Contains(0x40) {
		t.Error("both lines should be resident")
	}
}

func TestInstallExistingLineIsIdempotent(t *testing.T) {
	l, _ := NewLevel(smallGeom())
	l.Install(0x00, false)
	if _, _, evicted := l.Install(0x00, true); evicted {
		t.Error("re-install of resident line evicted")
	}
	l.Install(0x40, false)
	// 0x00 must now be dirty (second install was a write).
	_, dirty, _ := l.Install(0x80, false)
	if !dirty {
		t.Error("write re-install did not dirty the line")
	}
}

func TestOnEvictHook(t *testing.T) {
	l, _ := NewLevel(smallGeom())
	var evicted []uint64
	l.OnEvict = func(a uint64) { evicted = append(evicted, a) }
	l.Install(0x00, false)
	l.Install(0x40, false)
	l.Install(0x80, false) // evicts 0x00
	l.Install(0xc0, false) // evicts 0x40
	if len(evicted) != 2 || evicted[0] != 0x00 || evicted[1] != 0x40 {
		t.Errorf("OnEvict saw %v, want [0x00 0x40]", evicted)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	l, _ := NewLevel(smallGeom())
	l.Install(0x00, false)
	l.Install(0x40, false)
	// Touch 0x00 via Contains (must NOT refresh LRU), then touch 0x40 via
	// Lookup (does refresh). Victim must be 0x00.
	l.Contains(0x00)
	l.Lookup(0x40, false)
	hits, misses := l.Hits(), l.Misses()
	l.Contains(0x00)
	if l.Hits() != hits || l.Misses() != misses {
		t.Error("Contains changed statistics")
	}
	victim, _, _ := l.Install(0x80, false)
	if victim != 0x00 {
		t.Errorf("victim = %#x; Contains must not refresh LRU", victim)
	}
}

// TestWayIsTwoWords pins the tag-array footprint: a way is its tag and a
// stamp that packs the LRU clock above the line state. A pooled core holds
// one way per line of its L1s and L2, so growing it grows every campaign.
func TestWayIsTwoWords(t *testing.T) {
	if got := unsafe.Sizeof(way{}); got != 16 {
		t.Errorf("way is %d bytes, want 16", got)
	}
}
