package core

import "testing"

// TestStoreBufferDrainDoesNotAllocate guards the store-drain hot path: a
// warm insert→drain→expire cycle must never touch the heap. The scratch
// slice returned by Expire is reused across cycles, and entries compact in
// place, so the only allocations are the two capacity-sized slices made by
// NewStoreBuffer.
func TestStoreBufferDrainDoesNotAllocate(t *testing.T) {
	b := NewStoreBuffer(8, 8, true)
	cycle := uint64(0)
	drain := func() {
		// Two stores to distinct chunks, one combining store, then issue
		// and expire everything — the full per-cycle drain pattern.
		b.Insert(cycle, 0x1000, 8, nil)
		b.Insert(cycle, 0x2000, 8, nil)
		b.Insert(cycle, 0x1000, 8, nil)
		for {
			e := b.NextDrain()
			if e < 0 {
				break
			}
			b.MarkIssued(e, cycle+2)
		}
		cycle += 3
		b.Expire(cycle)
	}
	// Warm up so the entries/expired slices reach steady capacity.
	for i := 0; i < 64; i++ {
		drain()
	}
	if avg := testing.AllocsPerRun(1000, drain); avg != 0 {
		t.Errorf("store-buffer drain allocates %v objects/cycle; want 0", avg)
	}
}

// TestMemPortCycleDoesNotAllocate drives a warm MemPort through full cycles
// of loads and committed stores and asserts zero steady-state allocations,
// covering the arbiter, the line buffers, the store buffer, and the cache
// hierarchy underneath (MSHR slices included) in one measurement.
func TestMemPortCycleDoesNotAllocate(t *testing.T) {
	p, _ := newPort(t, bestSingle())
	cycle := uint64(0)
	addr := uint64(0)
	oneCycle := func() {
		p.BeginCycle(cycle)
		// A striding load mix: some line-buffer hits, some misses that
		// exercise the fill and MSHR paths.
		p.TryLoad(cycle, 0x10000+(addr&0xffff), 8)
		p.TryLoad(cycle, 0x40000+((addr*7)&0x1ffff), 8)
		p.TryCommitStore(cycle, 0x80000+((addr*3)&0xffff), 8)
		addr += 8
		p.EndCycle(cycle)
		p.FinishCycle()
		cycle++
	}
	for i := 0; i < 50_000; i++ {
		oneCycle()
	}
	if avg := testing.AllocsPerRun(5000, oneCycle); avg != 0 {
		t.Errorf("MemPort cycle allocates %v objects/cycle in steady state; want 0", avg)
	}
}
