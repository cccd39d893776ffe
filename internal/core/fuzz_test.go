package core

import (
	"testing"
)

// scanDrain is NextDrain's oracle, recomputed without the memo: the oldest
// un-issued entry with no older entry of its chunk, or -1.
func scanDrain(b *StoreBuffer) int {
	for i := 0; i < b.n; i++ {
		if b.issued[i] {
			continue
		}
		older := false
		for j := 0; j < i; j++ {
			older = older || b.chunkAddr[j] == b.chunkAddr[i]
		}
		if !older {
			return i
		}
	}
	return -1
}

// FuzzStoreBufferInsert drives a store buffer through an arbitrary byte-coded
// op sequence and checks the structural invariants that the simulator relies
// on: occupancy never exceeds capacity, Insert refuses a store exactly when
// CanAccept says it cannot enter and a refusal changes nothing, a merge
// keeps occupancy, drains only hand out un-issued entries, the
// counters stay consistent, and after every Insert, MarkIssued, Expire and
// Reset the memoised NextDrain agrees with scanDrain. Ops are decoded so
// that every input is a valid call sequence — the fuzzer explores orderings
// and aliasing patterns, not the documented misuse panics (those are pinned
// in panics_test.go).
func FuzzStoreBufferInsert(f *testing.F) {
	// Seed corpus: insert/combine/drain/expire cycles, probe hits and
	// conflicts, full-buffer pressure.
	f.Add(uint8(4), uint8(8), true, []byte{0x00, 0x11, 0x22, 0x33, 0x44, 0x55})
	f.Add(uint8(1), uint8(8), false, []byte{0x00, 0x00, 0x00, 0x00})
	f.Add(uint8(2), uint8(16), true, []byte{0x10, 0x20, 0xf0, 0x30, 0xf1, 0x40})
	f.Add(uint8(8), uint8(32), false, []byte{0x01, 0x41, 0x81, 0xc1, 0xf0, 0xf1, 0x02})
	f.Add(uint8(3), uint8(64), true, []byte{0xaa, 0xbb, 0xcc, 0xdd, 0xee, 0xff, 0xf0, 0xf1, 0xf2})
	f.Add(uint8(6), uint8(8), false, []byte{0x02, 0x04, 0x02, 0xc2, 0x06, 0xff, 0x02, 0xc0, 0x08, 0xc0, 0x06})

	f.Fuzz(func(t *testing.T, rawCap, rawChunk uint8, combining bool, ops []byte) {
		capacity := int(rawCap%16) + 1
		chunkBytes := 8 << (rawChunk % 4) // 8, 16, 32, 64
		b := NewStoreBuffer(capacity, chunkBytes, combining)

		drainAgrees := func(after string) {
			t.Helper()
			if got, want := b.NextDrain(), scanDrain(b); got != want {
				t.Fatalf("after %s: NextDrain = %d, rescan finds %d", after, got, want)
			}
		}
		var now uint64
		inserted := 0
		for _, op := range ops {
			now++
			if op == 0xff { // reset, in place of one drain op
				b.Reset()
				inserted = 0
				drainAgrees("Reset")
				continue
			}
			// Decode one op: low 6 bits pick an address in a 4-chunk window
			// (to provoke aliasing), top 2 bits pick the action.
			addr := uint64(op&0x3f) * 2
			size := 1 << (addr % 4) // 1, 2, 4, 8 — naturally aligned below
			addr &^= uint64(size - 1)
			switch op >> 6 {
			case 0, 1: // insert (twice as likely: pressure matters)
				can := b.CanAccept(addr, size)
				before, inserts := b.Len(), b.Inserts()
				ok, combined := b.Insert(now, addr, size, nil)
				if ok != can {
					t.Fatalf("Insert accepted = %v, CanAccept = %v", ok, can)
				}
				if !ok {
					if b.Len() != before || b.Inserts() != inserts {
						t.Fatalf("refused Insert changed the buffer: len %d -> %d, inserts %d -> %d", before, b.Len(), inserts, b.Inserts())
					}
					continue
				}
				inserted++
				drainAgrees("Insert")
				if b.Len() > b.Cap() {
					t.Fatalf("occupancy %d exceeds capacity %d", b.Len(), b.Cap())
				}
				if grew := b.Len() - before; combined && grew != 0 || !combined && grew != 1 {
					t.Fatalf("Insert (combined %v) grew the buffer by %d", combined, grew)
				}
			case 2: // probe
				forward, conflict := b.Probe(addr, size)
				if forward && conflict {
					t.Fatal("Probe returned forward and conflict together")
				}
			case 3: // drain one entry, then expire completed drains
				if e := b.NextDrain(); e >= 0 {
					b.MarkIssued(e, now+2)
					drainAgrees("MarkIssued")
				}
				before := b.Len()
				done := b.Expire(now)
				drainAgrees("Expire")
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
