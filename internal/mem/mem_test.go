package mem

import (
	"testing"

	"portsim/internal/config"
)

func TestDRAMLatencyAndBandwidth(t *testing.T) {
	d := NewDRAM(config.Memory{DRAMLatency: 60, DRAMInterval: 8})
	if got := d.Access(100); got != 160 {
		t.Errorf("first access ready at %d, want 160", got)
	}
	// Second access one cycle later queues behind the interval.
	if got := d.Access(101); got != 100+8+60 {
		t.Errorf("queued access ready at %d, want 168", got)
	}
	// An access long after the channel freed sees only the latency.
	if got := d.Access(1000); got != 1060 {
		t.Errorf("idle access ready at %d, want 1060", got)
	}
	if d.Accesses() != 3 {
		t.Errorf("access count = %d", d.Accesses())
	}
}

func TestDRAMZeroInterval(t *testing.T) {
	d := NewDRAM(config.Memory{DRAMLatency: 10, DRAMInterval: 0})
	if d.Access(5) != 15 || d.Access(5) != 15 {
		t.Error("zero-interval DRAM should allow back-to-back accesses")
	}
}

func newSystem(t *testing.T) *System {
	t.Helper()
	m := config.Baseline()
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSystemL1Hit(t *testing.T) {
	s := newSystem(t)
	r1 := s.DataAccess(10, 0x1000, false)
	if !r1.Accepted || r1.L1Hit {
		t.Fatalf("cold access = %+v, want accepted miss", r1)
	}
	if r1.Ready <= 10+1 {
		t.Errorf("miss completed at %d, implausibly fast", r1.Ready)
	}
	r2 := s.DataAccess(r1.Ready+1, 0x1008, false)
	if !r2.Accepted || !r2.L1Hit {
		t.Fatalf("warm access = %+v, want hit", r2)
	}
	if r2.Ready != r1.Ready+1+1 {
		t.Errorf("hit latency wrong: ready %d from cycle %d", r2.Ready, r1.Ready+1)
	}
}

// outstandingDataMisses returns the number of L1D fills still in flight at
// cycle now.
func outstandingDataMisses(s *System, now uint64) int {
	s.l1dMSHR.expire(now)
	return len(s.l1dMSHR.fills)
}

func TestSystemMSHRMerge(t *testing.T) {
	s := newSystem(t)
	r1 := s.DataAccess(0, 0x2000, false)
	r2 := s.DataAccess(1, 0x2008, false) // same line, fill in flight
	if !r2.Accepted || !r2.MergedMSHR {
		t.Fatalf("second access = %+v, want MSHR merge", r2)
	}
	if r2.Ready < r1.Ready {
		t.Error("merged access completed before the fill it merged into")
	}
	if got := outstandingDataMisses(s, 1); got != 1 {
		t.Errorf("outstanding misses = %d, want 1 (merge must not allocate)", got)
	}
}

func TestSystemMSHRExhaustion(t *testing.T) {
	m := config.Baseline()
	m.L1D.MSHRs = 2
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	if !s.DataAccess(0, 0x10000, false).Accepted {
		t.Fatal("first miss refused")
	}
	if !s.DataAccess(0, 0x20000, false).Accepted {
		t.Fatal("second miss refused")
	}
	r := s.DataAccess(0, 0x30000, false)
	if r.Accepted {
		t.Fatal("third concurrent miss accepted with 2 MSHRs")
	}
	// After the fills land, the same access is accepted.
	r = s.DataAccess(100000, 0x30000, false)
	if !r.Accepted {
		t.Fatal("access refused after MSHRs drained")
	}
}

// TestMSHRFreesOnFillCycle pins the cycle an MSHR frees: a fill completing
// at cycle d holds its register through d-1 and releases it at d, however
// many earlier accesses found nothing yet due.
func TestMSHRFreesOnFillCycle(t *testing.T) {
	m := config.Baseline()
	m.L1D.MSHRs = 2
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	hitLat := uint64(m.L1D.HitLatency)
	r1 := s.DataAccess(0, 0x10000, false)
	r2 := s.DataAccess(0, 0x20000, false)
	if !r1.Accepted || !r2.Accepted {
		t.Fatal("miss refused with free MSHRs")
	}
	d1, d2 := r1.Ready-hitLat, r2.Ready-hitLat
	if d2 <= d1 {
		t.Fatalf("fills complete at %d and %d; want the second later", d1, d2)
	}
	for now := uint64(1); now < d1; now++ {
		if got := outstandingDataMisses(s, now); got != 2 {
			t.Fatalf("cycle %d: %d outstanding misses, want 2", now, got)
		}
	}
	// The third line shares the first's page, so no walk delays it.
	if s.DataAccess(d1-1, 0x10040, false).Accepted {
		t.Fatalf("third miss accepted at cycle %d, before the first fill lands", d1-1)
	}
	if got := outstandingDataMisses(s, d1); got != 1 {
		t.Fatalf("cycle %d: %d outstanding misses, want 1", d1, got)
	}
	if !s.DataAccess(d1, 0x10040, false).Accepted {
		t.Fatalf("third miss refused at cycle %d, when the first fill landed", d1)
	}
	if got := outstandingDataMisses(s, d2); got != 1 {
		t.Fatalf("cycle %d: %d outstanding misses, want 1", d2, got)
	}
}

func TestSystemUnlimitedMSHRs(t *testing.T) {
	m := config.Baseline()
	m.L1D.MSHRs = 0
	m.Mem.L2.MSHRs = 0
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 64; i++ {
		if !s.DataAccess(0, uint64(0x100000+i*4096), false).Accepted {
			t.Fatalf("miss %d refused with unlimited MSHRs", i)
		}
	}
}

func TestSystemL2HitFasterThanDRAM(t *testing.T) {
	s := newSystem(t)
	// First touch: L1 miss, L2 miss -> DRAM.
	cold := s.DataAccess(0, 0x5000, false)
	// Evict 0x5000 from L1 by filling its set; L1D is 32KB 2-way 32B
	// lines => 512 sets, stride 512*32 = 16KB maps to the same set.
	s.DataAccess(cold.Ready, 0x5000+16384, false)
	r2 := s.DataAccess(cold.Ready+200, 0x5000+32768, false)
	// Now 0x5000 should be L1-absent but L2-resident.
	warm := s.DataAccess(r2.Ready+200, 0x5000, false)
	if warm.L1Hit {
		t.Skip("eviction pattern did not displace the line; geometry changed?")
	}
	coldLat := cold.Ready - 0
	warmLat := warm.Ready - (r2.Ready + 200)
	if warmLat >= coldLat {
		t.Errorf("L2 hit latency %d not faster than DRAM fill %d", warmLat, coldLat)
	}
}

func TestSystemWritePropagatesDirty(t *testing.T) {
	s := newSystem(t)
	r := s.DataAccess(0, 0x6000, true)
	if !r.Accepted {
		t.Fatal("store refused")
	}
	// Evict it: two more lines in the same set (stride 16KB).
	now := r.Ready + 1
	a := s.DataAccess(now, 0x6000+16384, false)
	b := s.DataAccess(a.Ready+1, 0x6000+32768, false)
	_ = b
	// The dirty line's writeback allocates in L2; statistics must show an
	// L1D writeback.
	if s.L1D.Writebacks() == 0 {
		t.Error("dirty line eviction produced no writeback")
	}
}

func TestInstFetchSeparateFromData(t *testing.T) {
	s := newSystem(t)
	s.InstFetch(0, 0x1000)
	if s.L1D.Misses() != 0 {
		t.Error("instruction fetch touched the data cache")
	}
	if s.L1I.Misses() != 1 {
		t.Error("instruction fetch did not touch the instruction cache")
	}
}

func TestMonotoneReadiness(t *testing.T) {
	// Property: data is never ready before the request cycle plus the L1
	// hit latency.
	s := newSystem(t)
	addrs := []uint64{0, 0x40, 0x1000, 0x40, 0x20000, 0x1000, 0x333000, 0}
	now := uint64(0)
	for _, a := range addrs {
		r := s.DataAccess(now, a, false)
		if !r.Accepted {
			now += 100
			continue
		}
		if r.Ready < now+1 {
			t.Fatalf("access at %d ready at %d, before hit latency", now, r.Ready)
		}
		now = r.Ready
	}
}

func TestWriteThroughStoresNeverDirty(t *testing.T) {
	m := config.Baseline()
	m.L1D.WriteThrough = true
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	// Load a line, store to it, then evict it: no writeback may occur.
	r := s.DataAccess(0, 0x1000, false)
	w := s.DataAccess(r.Ready+1, 0x1000, true)
	if !w.Accepted || !w.NoFill {
		t.Fatalf("write-through store = %+v, want accepted NoFill", w)
	}
	if !w.L1Hit {
		t.Error("store to resident line reported as L1 miss")
	}
	s.DataAccess(w.Ready+1, 0x1000+16384, false)
	s.DataAccess(w.Ready+500, 0x1000+32768, false)
	if s.L1D.Writebacks() != 0 {
		t.Errorf("write-through cache produced %d writebacks", s.L1D.Writebacks())
	}
}

func TestWriteThroughMissDoesNotAllocate(t *testing.T) {
	m := config.Baseline()
	m.L1D.WriteThrough = true
	s, err := NewSystem(&m)
	if err != nil {
		t.Fatal(err)
	}
	w := s.DataAccess(0, 0x5000, true)
	if !w.Accepted || w.L1Hit || !w.NoFill {
		t.Fatalf("cold write-through store = %+v", w)
	}
	if s.L1D.Contains(0x5000) {
		t.Error("no-write-allocate cache allocated on a store miss")
	}
	// The written line must be in L2 (dirty there).
	if !s.L2.Contains(0x5000) {
		t.Error("write did not propagate to L2")
	}
}

func TestWriteBackDefaultUnchanged(t *testing.T) {
	s := newSystem(t)
	w := s.DataAccess(0, 0x5000, true)
	if w.NoFill {
		t.Error("write-back store reported NoFill")
	}
	if !s.L1D.Contains(0x5000) {
		t.Error("write-allocate cache did not allocate")
	}
}

func TestWriteThroughConfigValidation(t *testing.T) {
	m := config.Baseline()
	m.L1I.WriteThrough = true
	if err := m.Validate(); err == nil {
		t.Error("write-through L1I accepted")
	}
	m = config.Baseline()
	m.Mem.L2.WriteThrough = true
	if err := m.Validate(); err == nil {
		t.Error("write-through L2 accepted")
	}
	m = config.Baseline()
	m.L1D.WriteThrough = true
	if err := m.Validate(); err != nil {
		t.Errorf("write-through L1D rejected: %v", err)
	}
}
