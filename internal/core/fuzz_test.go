package core

import (
	"testing"
)

// FuzzStoreBufferInsert drives a store buffer through an arbitrary byte-coded
// op sequence and checks the structural invariants that the simulator relies
// on: occupancy never exceeds capacity, CanAccept never lies (an accepted
// Insert must not panic), drains only hand out un-issued entries, and the
// counters stay consistent. Ops are decoded so that every input is a valid
// call sequence — the fuzzer explores orderings and aliasing patterns, not
// the documented misuse panics (those are pinned in panics_test.go).
func FuzzStoreBufferInsert(f *testing.F) {
	// Seed corpus: insert/combine/drain/expire cycles, probe hits and
	// conflicts, full-buffer pressure.
	f.Add(uint8(4), uint8(8), true, []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55})
	f.Add(uint8(1), uint8(8), false, []byte{0x00, 0x00, 0x00, 0x00})
	f.Add(uint8(2), uint8(16), true, []byte{0x10, 0x20, 0xf0, 0x30, 0xf1, 0x40})
	f.Add(uint8(8), uint8(32), false, []byte{0x01, 0x41, 0x81, 0xc1, 0xf0, 0xf1, 0x02})
	f.Add(uint8(3), uint8(64), true, []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0xf0, 0xf1, 0xf2})

	f.Fuzz(func(t *testing.T, rawCap, rawChunk uint8, combining bool, ops []byte) {
		capacity := int(rawCap%16) + 1
		chunkBytes := 8 << (rawChunk % 4) // 8, 16, 32, 64
		b := NewStoreBuffer(capacity, chunkBytes, combining)

		var now uint64
		inserted := 0
		for _, op := range ops {
			now++
			// Decode one op: low 6 bits pick an address in a 4-chunk window
			// (to provoke aliasing), top 2 bits pick the action.
			addr := uint64(op&0x3f) * 2
			size := 1 << (addr % 4) // 1, 2, 4, 8 — naturally aligned below
			addr &^= uint64(size - 1)
			switch op >> 6 {
			case 0, 1: // insert (twice as likely: pressure matters)
				if !b.CanAccept(addr, size) {
					continue
				}
				before := b.Len()
				b.Insert(now, addr, size, nil)
				inserted++
				if b.Len() > b.Cap() {
					t.Fatalf("occupancy %d exceeds capacity %d", b.Len(), b.Cap())
				}
				if b.Len() < before {
					t.Fatalf("Insert shrank the buffer: %d -> %d", before, b.Len())
				}
			case 2: // probe
				forward, conflict := b.Probe(addr, size)
				if forward && conflict {
					t.Fatal("Probe returned forward and conflict together")
				}
			case 3: // drain one entry, then expire completed drains
				if e := b.NextDrain(); e >= 0 {
					b.MarkIssued(e, now+2)
				}
				before := b.Len()
				done := b.Expire(now)
				if b.Len() != before-len(done) {
					t.Fatalf("Expire removed %d entries but returned %d", before-b.Len(), len(done))
				}
				if uint64(len(done)) > b.Drains() {
					t.Fatalf("expired %d entries with only %d drains issued", len(done), b.Drains())
				}
				// The cache, which drives Expire's early return, is now the
				// earliest remaining completion; at or below now it would
				// mean a completed drain stayed in the buffer.
				if b.nextExpiry <= now {
					t.Fatalf("nextExpiry %d not past cycle %d after Expire", b.nextExpiry, now)
				}
			}
		}
		if got := b.Inserts(); got != uint64(inserted) {
			t.Fatalf("insert counter %d, want %d", got, inserted)
		}
		if b.Combined() > b.Inserts() {
			t.Fatalf("combined %d exceeds inserts %d", b.Combined(), b.Inserts())
		}
		if b.Len() > b.Cap() {
			t.Fatalf("final occupancy %d exceeds capacity %d", b.Len(), b.Cap())
		}
		// Drain everything: the buffer must be able to empty from any state.
		for b.Len() > 0 {
			now++
			if e := b.NextDrain(); e >= 0 {
				b.MarkIssued(e, now)
			}
			before := b.Len()
			b.Expire(now)
			if b.Len() >= before && b.NextDrain() < 0 {
				// Every remaining entry must be issued and waiting; one more
				// cycle must expire at least one of them.
				continue
			}
		}
	})
}
