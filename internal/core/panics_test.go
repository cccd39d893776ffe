package core

import (
	"fmt"
	"strings"
	"testing"
)

// wantPanic runs fn and asserts it panics with a message containing want.
// Every store-buffer panic is a misuse guard: the experiment engine's
// containment boundary (internal/experiments) turns these into CellErrors,
// so the exact messages are load-bearing diagnostics.
func wantPanic(t *testing.T, want string, fn func()) {
	t.Helper()
	defer func() {
		p := recover() //portlint:ignore recoverhygiene test asserts the panic fires
		if p == nil {
			t.Errorf("no panic; want panic containing %q", want)
			return
		}
		if msg := fmt.Sprint(p); !strings.Contains(msg, want) {
			t.Errorf("panic %q; want it to contain %q", msg, want)
		}
	}()
	fn()
}

// TestNewStoreBufferPanicsOnBadSizing covers the constructor's two guards.
func TestNewStoreBufferPanicsOnBadSizing(t *testing.T) {
	wantPanic(t, "store buffer capacity must be positive", func() { NewStoreBuffer(0, 8, false) })
	wantPanic(t, "store buffer capacity must be positive", func() { NewStoreBuffer(-3, 8, false) })
	for _, w := range []int{0, 4, 7, 12, 24, 128} {
		w := w
		wantPanic(t, fmt.Sprintf("unsupported chunk width %d", w), func() { NewStoreBuffer(4, w, false) })
	}
	// The supported widths construct cleanly.
	for _, w := range []int{8, 16, 32, 64} {
		if b := NewStoreBuffer(1, w, true); b == nil {
			t.Fatalf("width %d rejected", w)
		}
	}
}

// TestInsertPanicsOnBadStoreSize covers the per-store size guard — the panic
// the badinst fault injector drives through a full pipeline run.
func TestInsertPanicsOnBadStoreSize(t *testing.T) {
	for _, size := range []int{0, -1, 9, 64} {
		size := size
		b := NewStoreBuffer(4, 8, false)
		wantPanic(t, fmt.Sprintf("store size %d unsupported", size), func() { b.Insert(0, 0x100, size, nil) })
	}
}

// TestInsertPanicsOnDataSizeMismatch covers the data-carrying mode guard.
func TestInsertPanicsOnDataSizeMismatch(t *testing.T) {
	b := NewStoreBuffer(4, 8, false)
	wantPanic(t, "data length disagrees with store size", func() { b.Insert(0, 0x100, 4, []byte{1, 2}) })
	wantPanic(t, "data length disagrees with store size", func() { b.Insert(0, 0x100, 1, []byte{1, 2}) })
	// nil data (timing-only) and exact data both pass.
	b.Insert(0, 0x100, 4, nil)
	b.Insert(0, 0x200, 2, []byte{1, 2})
}

// TestInsertRefusesWhenFull covers back-pressure: Insert refuses a store
// that neither combines nor finds a free slot, exactly when CanAccept
// reports false, and the refusal changes nothing.
func TestInsertRefusesWhenFull(t *testing.T) {
	b := NewStoreBuffer(2, 8, false)
	b.Insert(0, 0x100, 8, nil)
	b.Insert(0, 0x200, 8, nil)
	if b.CanAccept(0x300, 8) {
		t.Fatal("full buffer claims CanAccept")
	}
	if ok, combined := b.Insert(0, 0x300, 8, nil); ok || combined {
		t.Fatalf("Insert on a full buffer = (%v, %v), want a refusal", ok, combined)
	}
	if b.Len() != 2 || b.Inserts() != 2 || b.Combined() != 0 {
		t.Errorf("refusal changed the buffer: len %d, inserts %d, combined %d", b.Len(), b.Inserts(), b.Combined())
	}

	// With combining, the same third store is accepted when it merges into
	// an existing un-issued chunk even at capacity.
	c := NewStoreBuffer(2, 8, true)
	c.Insert(0, 0x100, 8, nil)
	c.Insert(0, 0x200, 8, nil)
	if !c.CanAccept(0x104, 4) {
		t.Fatal("combining buffer refuses a mergeable store at capacity")
	}
	if ok, combined := c.Insert(0, 0x104, 4, nil); !ok || !combined {
		t.Errorf("mergeable store = (%v, %v), want it combined", ok, combined)
	}
	// Once the entry issues, its chunk no longer combines, and the full
	// buffer refuses it like any other.
	c.MarkIssued(c.NextDrain(), 100)
	if ok, _ := c.Insert(0, 0x104, 4, nil); ok || c.CanAccept(0x104, 4) {
		t.Error("store combined into an issued entry of a full buffer")
	}
}
