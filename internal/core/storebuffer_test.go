package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"portsim/internal/flatmem"
)

func TestStoreBufferPanicsOnBadConstruction(t *testing.T) {
	for _, f := range []func(){
		func() { NewStoreBuffer(0, 32, false) },
		func() { NewStoreBuffer(8, 4, false) },
		func() { NewStoreBuffer(8, 24, false) },
		func() { NewStoreBuffer(8, 128, false) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad construction did not panic")
				}
			}()
			f()
		}()
	}
}

func TestStoreBufferInsertAndDrainFIFO(t *testing.T) {
	b := NewStoreBuffer(4, 32, false)
	b.Insert(0, 0x100, 8, nil)
	b.Insert(0, 0x200, 4, nil)
	i := b.NextDrain()
	if i < 0 || b.ChunkAddrAt(i) != 0x100 {
		t.Fatalf("first drain = %d, want chunk 0x100", i)
	}
	b.MarkIssued(i, 10)
	i = b.NextDrain()
	if i < 0 || b.ChunkAddrAt(i) != 0x200 {
		t.Fatalf("second drain = %d, want chunk 0x200", i)
	}
	b.MarkIssued(i, 12)
	if b.NextDrain() >= 0 {
		t.Error("drain offered with everything issued")
	}
	done := b.Expire(11)
	if len(done) != 1 || done[0].ChunkAddr != 0x100 {
		t.Errorf("Expire(11) = %v, want just chunk 0x100", done)
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
	done = b.Expire(20)
	if len(done) != 1 || b.Len() != 0 {
		t.Error("second expire did not empty the buffer")
	}
}

func TestStoreBufferCapacityWithoutCombining(t *testing.T) {
	b := NewStoreBuffer(2, 32, false)
	if !b.CanAccept(0x100, 8) {
		t.Fatal("empty buffer refused")
	}
	b.Insert(0, 0x100, 8, nil)
	b.Insert(0, 0x100, 8, nil) // same chunk but no combining: second slot
	if b.CanAccept(0x300, 8) {
		t.Error("full buffer accepted")
	}
	if b.Len() != 2 {
		t.Errorf("Len = %d, want 2 (no combining)", b.Len())
	}
}

func TestStoreBufferCombiningMergesChunk(t *testing.T) {
	b := NewStoreBuffer(2, 32, true)
	if _, combined := b.Insert(0, 0x100, 8, nil); combined {
		t.Error("first store reported combined")
	}
	if _, combined := b.Insert(0, 0x108, 8, nil); !combined {
		t.Error("same-chunk store did not combine")
	}
	if b.Len() != 1 {
		t.Errorf("Len = %d, want 1", b.Len())
	}
	if b.Combined() != 1 || b.Inserts() != 2 {
		t.Errorf("combined=%d inserts=%d", b.Combined(), b.Inserts())
	}
	b.MarkIssued(b.NextDrain(), 5)
	out := b.Expire(10)
	if len(out) != 1 || out[0].Mask != 0xffff {
		t.Errorf("expired %+v, want one entry with mask 0xffff (bytes 0-15)", out)
	}
	if b.Drains() != 1 {
		t.Errorf("drains = %d, want 1 port write for both stores", b.Drains())
	}
}

func TestStoreBufferCombiningFullAlwaysAcceptsMatchingChunk(t *testing.T) {
	b := NewStoreBuffer(1, 32, true)
	b.Insert(0, 0x100, 8, nil)
	if !b.CanAccept(0x110, 4) {
		t.Error("full combining buffer refused a matching chunk")
	}
	if b.CanAccept(0x200, 4) {
		t.Error("full buffer accepted a new chunk")
	}
	// Once issued, the entry may no longer combine (its write is in
	// flight); the chunk must be refused like any other.
	b.MarkIssued(b.NextDrain(), 100)
	if b.CanAccept(0x110, 4) {
		t.Error("store combined into an issued entry")
	}
}

func TestStoreBufferProbe(t *testing.T) {
	b := NewStoreBuffer(4, 32, true)
	b.Insert(0, 0x108, 8, nil)
	if fwd, conf := b.Probe(0x108, 8); !fwd || conf {
		t.Errorf("full overlap = (%v,%v), want forward", fwd, conf)
	}
	if fwd, conf := b.Probe(0x10c, 4); !fwd || conf {
		t.Errorf("contained overlap = (%v,%v), want forward", fwd, conf)
	}
	if fwd, conf := b.Probe(0x100, 8); fwd || conf {
		t.Errorf("disjoint same chunk = (%v,%v), want miss", fwd, conf)
	}
	if fwd, conf := b.Probe(0x104, 8); fwd || !conf {
		t.Errorf("partial overlap = (%v,%v), want conflict", fwd, conf)
	}
	if fwd, conf := b.Probe(0x200, 8); fwd || conf {
		t.Errorf("other chunk = (%v,%v), want miss", fwd, conf)
	}
}

func TestStoreBufferProbeYoungestWins(t *testing.T) {
	b := NewStoreBuffer(4, 32, false)
	b.Insert(0, 0x100, 8, []byte{1, 1, 1, 1, 1, 1, 1, 1})
	b.Insert(0, 0x100, 4, []byte{2, 2, 2, 2})
	// Load of bytes 0-3: youngest entry covers them fully.
	if fwd, _ := b.Probe(0x100, 4); !fwd {
		t.Fatal("covered load not forwarded")
	}
	p := make([]byte, 4)
	if !b.ReadForward(0x100, p) {
		t.Fatal("ReadForward failed")
	}
	if p[0] != 2 {
		t.Errorf("forwarded stale bytes: %v", p)
	}
	// Load of bytes 0-7: youngest entry only covers 0-3 -> conflict.
	if fwd, conf := b.Probe(0x100, 8); fwd || !conf {
		t.Error("partial cover by youngest must conflict")
	}
}

func TestStoreBufferSameChunkDrainOrdering(t *testing.T) {
	b := NewStoreBuffer(4, 32, false)
	b.Insert(0, 0x100, 8, nil)
	b.Insert(0, 0x200, 8, nil)
	b.Insert(0, 0x100, 8, nil) // same chunk as first
	e1 := b.NextDrain()
	if b.ChunkAddrAt(e1) != 0x100 {
		t.Fatalf("first drain chunk %#x", b.ChunkAddrAt(e1))
	}
	b.MarkIssued(e1, 1000) // long miss in flight
	e2 := b.NextDrain()
	if e2 < 0 || b.ChunkAddrAt(e2) != 0x200 {
		t.Fatalf("second drain = %d, want chunk 0x200", e2)
	}
	b.MarkIssued(e2, 5)
	// The younger 0x100 entry must be blocked while the older one is in
	// flight, even though ports are free.
	if e3 := b.NextDrain(); e3 >= 0 {
		t.Errorf("same-chunk entry drained while older in flight: index %d", e3)
	}
	b.Expire(1001)
	if e3 := b.NextDrain(); e3 < 0 || b.ChunkAddrAt(e3) != 0x100 {
		t.Error("blocked entry not released after older completed")
	}
}

func TestStoreBufferInsertPanics(t *testing.T) {
	b := NewStoreBuffer(1, 32, false)
	b.Insert(0, 0x100, 8, nil)
	for _, f := range []func(){
		func() { b.Insert(0, 0x300, 0, nil) },       // zero size
		func() { b.Insert(0, 0x300, 16, nil) },      // oversized
		func() { b.Insert(0, 0x300, 4, []byte{1}) }, // data/size mismatch
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("bad Insert did not panic")
				}
			}()
			f()
		}()
	}
}

// TestStoreBufferOccupancy: Len, which end-of-run draining and the stall
// diagnosis read, counts an entry from insert until Expire removes it,
// including while its write is in flight.
func TestStoreBufferOccupancy(t *testing.T) {
	b := NewStoreBuffer(4, 32, false)
	if b.Len() != 0 {
		t.Fatalf("new buffer Len = %d", b.Len())
	}
	b.Insert(0, 0x100, 8, nil)
	b.Insert(0, 0x108, 8, nil) // no combining: a second entry
	if b.Len() != 2 {
		t.Fatalf("Len = %d after two inserts, want 2", b.Len())
	}
	b.MarkIssued(b.NextDrain(), 5)
	if b.Expire(4); b.Len() != 2 {
		t.Errorf("Len = %d with one write in flight, want 2", b.Len())
	}
	if b.Expire(5); b.Len() != 1 {
		t.Errorf("Len = %d after the write completed, want 1", b.Len())
	}
}

// drainAllInto applies every remaining entry's bytes to the memory,
// respecting the buffer's ordering machinery.
func drainAllInto(b *StoreBuffer, m *flatmem.Mem, now uint64) uint64 {
	for b.Len() > 0 {
		for {
			e := b.NextDrain()
			if e < 0 {
				break
			}
			b.MarkIssued(e, now)
		}
		for _, e := range b.Expire(now) {
			applyEntry(&e, m)
		}
		now++
	}
	return now
}

func applyEntry(e *SBEntry, m *flatmem.Mem) {
	for i := 0; i < maxChunkBytes; i++ {
		if e.Mask&(1<<i) != 0 {
			m.WriteAt(e.ChunkAddr+uint64(i), []byte{e.Data[i]})
		}
	}
}

// TestStoreBufferByteExactness is DESIGN.md's combining-correctness
// property: for any interleaving of stores and drains, with or without
// combining, applying the drained entries in completion order yields exactly
// the memory image of performing the stores directly, and forwarded loads
// always return the newest bytes.
func TestStoreBufferByteExactness(t *testing.T) {
	type op struct {
		Addr    uint16
		SizeSel uint8
		Val     uint64
		IsLoad  bool
		Drain   bool
	}
	check := func(ops []op, combining bool) bool {
		b := NewStoreBuffer(8, 32, combining)
		got := flatmem.New()
		ref := flatmem.New()
		now := uint64(0)
		for _, o := range ops {
			now++
			for _, e := range b.Expire(now) {
				applyEntry(&e, got)
			}
			size := 1 << (o.SizeSel % 4)
			addr := (uint64(o.Addr) % 512) &^ uint64(size-1)
			if o.IsLoad {
				fwd, conflict := b.Probe(addr, size)
				if conflict {
					continue // a real core would stall; nothing to check
				}
				want := make([]byte, size)
				ref.ReadAt(addr, want)
				have := make([]byte, size)
				if fwd {
					if !b.ReadForward(addr, have) {
						return false
					}
				} else {
					// No occupying entry overlaps these bytes, so
					// every store to them has already drained and
					// been applied: the memory image is exact.
					got.ReadAt(addr, have)
				}
				if string(have) != string(want) {
					return false
				}
				continue
			}
			data := make([]byte, size)
			for i := range data {
				data[i] = byte(o.Val >> (8 * i))
			}
			if !b.CanAccept(addr, size) {
				e := b.NextDrain()
				if e < 0 {
					now += 100
					for _, d := range b.Expire(now) {
						applyEntry(&d, got)
					}
					e = b.NextDrain()
				}
				if e >= 0 {
					b.MarkIssued(e, now+3)
				}
				if !b.CanAccept(addr, size) {
					now += 100
					for _, d := range b.Expire(now) {
						applyEntry(&d, got)
					}
				}
			}
			if ok, _ := b.Insert(0, addr, size, data); ok {
				ref.WriteAt(addr, data)
			}
			if o.Drain {
				if e := b.NextDrain(); e >= 0 {
					b.MarkIssued(e, now+2)
				}
			}
		}
		drainAllInto(b, got, now+1000)
		a := make([]byte, 1024)
		w := make([]byte, 1024)
		got.ReadAt(0, a)
		ref.ReadAt(0, w)
		return string(a) == string(w)
	}
	cfg := &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(11))}
	if err := quick.Check(func(ops []op) bool { return check(ops, true) }, cfg); err != nil {
		t.Errorf("combining: %v", err)
	}
	if err := quick.Check(func(ops []op) bool { return check(ops, false) }, cfg); err != nil {
		t.Errorf("non-combining: %v", err)
	}
}
