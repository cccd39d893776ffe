package core

import "testing"

func TestLineBufferDisabled(t *testing.T) {
	s := NewLineBufferSet(0, 32)
	s.Fill(0x100, 5)
	if _, hit := s.Lookup(0x100); hit {
		t.Error("disabled set returned a hit")
	}
	if s.Size() != 0 {
		t.Error("disabled set has non-zero size")
	}
}

func TestLineBufferChunkAddr(t *testing.T) {
	s := NewLineBufferSet(2, 32)
	if got := s.ChunkAddr(0x12345); got != 0x12340 {
		t.Errorf("ChunkAddr(0x12345) = %#x, want 0x12340", got)
	}
}

func TestLineBufferFillThenHit(t *testing.T) {
	s := NewLineBufferSet(2, 32)
	s.Fill(0x108, 50) // latches chunk 0x100
	ready, hit := s.Lookup(0x118)
	if !hit || ready != 50 {
		t.Errorf("Lookup = (%d,%v), want (50,true)", ready, hit)
	}
	if _, hit := s.Lookup(0x120); hit {
		t.Error("adjacent chunk hit spuriously")
	}
	if s.Hits() != 1 || s.Fills() != 1 {
		t.Errorf("stats hits=%d fills=%d", s.Hits(), s.Fills())
	}
}

func TestLineBufferLRUReplacement(t *testing.T) {
	s := NewLineBufferSet(2, 32)
	s.Fill(0x100, 1)
	s.Fill(0x200, 2)
	s.Lookup(0x100)  // 0x100 becomes MRU
	s.Fill(0x300, 3) // must evict 0x200
	if _, hit := s.Lookup(0x200); hit {
		t.Error("LRU victim survived")
	}
	if _, hit := s.Lookup(0x100); !hit {
		t.Error("MRU entry evicted")
	}
	if _, hit := s.Lookup(0x300); !hit {
		t.Error("new entry missing")
	}
}

func TestLineBufferRefill(t *testing.T) {
	s := NewLineBufferSet(2, 32)
	s.Fill(0x100, 10)
	s.Fill(0x104, 20) // same chunk: refresh, not a second fill
	if s.Fills() != 1 {
		t.Errorf("refill counted as new fill: %d", s.Fills())
	}
	ready, _ := s.Lookup(0x100)
	if ready != 20 {
		t.Errorf("refreshed readyAt = %d, want 20", ready)
	}
	if s.Live() != 1 {
		t.Errorf("Live = %d, want 1", s.Live())
	}
}

func TestLineBufferInvalidateChunk(t *testing.T) {
	s := NewLineBufferSet(4, 32)
	s.Fill(0x100, 1)
	s.Fill(0x200, 1)
	s.InvalidateChunk(0x110)
	if _, hit := s.Lookup(0x100); hit {
		t.Error("invalidated chunk still hits")
	}
	if _, hit := s.Lookup(0x200); !hit {
		t.Error("unrelated chunk invalidated")
	}
	if s.Invalidations() != 1 {
		t.Errorf("invalidations = %d", s.Invalidations())
	}
	s.InvalidateChunk(0x900) // absent: no-op
	if s.Invalidations() != 1 {
		t.Error("invalidation of absent chunk counted")
	}
}

func TestLineBufferInvalidateLine(t *testing.T) {
	// 32-byte chunks inside a 64-byte line: chunks 0x100 and 0x120 share
	// line 0x100; chunk 0x140 is in the next line.
	s := NewLineBufferSet(4, 32)
	s.Fill(0x100, 1)
	s.Fill(0x120, 1)
	s.Fill(0x140, 1)
	s.InvalidateLine(0x100, 64)
	if _, hit := s.Lookup(0x100); hit {
		t.Error("first chunk of evicted line still latched")
	}
	if _, hit := s.Lookup(0x120); hit {
		t.Error("second chunk of evicted line still latched")
	}
	if _, hit := s.Lookup(0x140); !hit {
		t.Error("chunk outside the evicted line dropped")
	}
}

func TestLineBufferNegativeCount(t *testing.T) {
	s := NewLineBufferSet(-3, 32)
	if s.Size() != 0 {
		t.Error("negative count should clamp to disabled")
	}
}

func TestLineBufferFillPrefersInvalidWay(t *testing.T) {
	s := NewLineBufferSet(3, 32)
	s.Fill(0x100, 1)
	s.Fill(0x200, 2)
	s.InvalidateChunk(0x100)
	s.Fill(0x300, 3) // should land in the invalidated slot
	if _, hit := s.Lookup(0x200); !hit {
		t.Error("valid entry evicted while an empty slot existed")
	}
	if s.Live() != 2 {
		t.Errorf("Live = %d, want 2", s.Live())
	}
}
