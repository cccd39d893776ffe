package diag

import (
	"strings"
	"testing"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(1, EventFetch, 2, 3)
	if r.Len() != 0 || r.Total() != 0 {
		t.Error("nil recorder reports non-zero sizes")
	}
	if ev := r.Events(); ev != nil {
		t.Errorf("nil recorder returned events: %v", ev)
	}
}

func TestRecorderKeepsOrderBeforeWrap(t *testing.T) {
	r := NewRecorder(8)
	for i := uint64(0); i < 5; i++ {
		r.Record(i, EventIssue, i, 0)
	}
	ev := r.Events()
	if len(ev) != 5 {
		t.Fatalf("len = %d, want 5", len(ev))
	}
	for i, e := range ev {
		if e.Cycle != uint64(i) {
			t.Errorf("event %d has cycle %d", i, e.Cycle)
		}
	}
	if r.Total() != 5 {
		t.Errorf("total = %d, want 5", r.Total())
	}
}

func TestRecorderWrapsOldestFirst(t *testing.T) {
	r := NewRecorder(4)
	for i := uint64(0); i < 10; i++ {
		r.Record(i, EventCommit, i, 0)
	}
	ev := r.Events()
	if len(ev) != 4 {
		t.Fatalf("len = %d, want 4", len(ev))
	}
	want := []uint64{6, 7, 8, 9}
	for i, e := range ev {
		if e.Cycle != want[i] {
			t.Errorf("event %d: cycle %d, want %d", i, e.Cycle, want[i])
		}
	}
	if r.Total() != 10 {
		t.Errorf("total = %d, want 10", r.Total())
	}
	if r.Len() != 4 || len(r.buf) != 4 {
		t.Errorf("len/depth = %d/%d, want 4/4", r.Len(), len(r.buf))
	}
}

// TestRecorderWraparoundCycleSorted is the regression test behind the trace
// exporter: the reassembled tail must come back in exact recording order —
// and therefore non-decreasing cycle order — at every possible ring phase,
// including bursts of same-cycle events that straddle the wrap point. Seq
// doubles as the recording sequence number, so any reassembly that splits
// the ring at the wrong slot shows up as a Seq discontinuity even where
// cycles tie.
func TestRecorderWraparoundCycleSorted(t *testing.T) {
	const depth = 8
	for n := 1; n <= 4*depth; n++ {
		r := NewRecorder(depth)
		for i := 0; i < n; i++ {
			// Three events per cycle: ties cross the wrap boundary at
			// most phases of n.
			r.Record(uint64(i/3), EventGrant, uint64(i), 0)
		}
		ev := r.Events()
		wantLen := n
		if wantLen > depth {
			wantLen = depth
		}
		if len(ev) != wantLen {
			t.Fatalf("n=%d: len = %d, want %d", n, len(ev), wantLen)
		}
		first := uint64(n - wantLen)
		for i, e := range ev {
			if want := first + uint64(i); e.Seq != want {
				t.Fatalf("n=%d: event %d has seq %d, want %d (tail out of recording order)", n, i, e.Seq, want)
			}
			if i > 0 && e.Cycle < ev[i-1].Cycle {
				t.Fatalf("n=%d: cycle regressed at event %d: %d after %d", n, i, e.Cycle, ev[i-1].Cycle)
			}
		}
		wantDropped := uint64(0)
		if n > depth {
			wantDropped = uint64(n - depth)
		}
		if r.Dropped() != wantDropped {
			t.Fatalf("n=%d: dropped = %d, want %d", n, r.Dropped(), wantDropped)
		}
	}
}

func TestDroppedNilAndUnwrapped(t *testing.T) {
	var nilRec *Recorder
	if nilRec.Dropped() != 0 {
		t.Error("nil recorder reports drops")
	}
	r := NewRecorder(4)
	r.Record(1, EventFetch, 0, 0)
	if r.Dropped() != 0 {
		t.Errorf("dropped = %d before wrap, want 0", r.Dropped())
	}
}

func TestEventsReturnsACopy(t *testing.T) {
	r := NewRecorder(4)
	r.Record(1, EventStall, 7, 0x40)
	ev := r.Events()
	r.Record(2, EventCommit, 8, 0)
	if len(ev) != 1 || ev[0].Cycle != 1 {
		t.Error("Events snapshot mutated by later Record")
	}
}

func TestDefaultDepthApplied(t *testing.T) {
	if d := len(NewRecorder(0).buf); d != DefaultDepth {
		t.Errorf("depth = %d, want %d", d, DefaultDepth)
	}
	if d := len(NewRecorder(-3).buf); d != DefaultDepth {
		t.Errorf("depth = %d, want %d", d, DefaultDepth)
	}
}

func TestKindStrings(t *testing.T) {
	for k := EventKind(0); k < numKinds; k++ {
		s := k.String()
		if s == "" || strings.HasPrefix(s, "kind(") {
			t.Errorf("kind %d has no name", k)
		}
	}
	if got := EventKind(200).String(); got != "kind(200)" {
		t.Errorf("unknown kind string = %q", got)
	}
}

func TestFormatEvents(t *testing.T) {
	r := NewRecorder(4)
	r.Record(12, EventGrant, 3, 0x1000)
	s := FormatEvents(r.Events())
	if !strings.Contains(s, "cycle 12") || !strings.Contains(s, "port-grant") {
		t.Errorf("formatted events missing fields:\n%s", s)
	}
	if empty := FormatEvents(nil); !strings.Contains(empty, "no flight-recorder events were recorded") {
		t.Errorf("empty format = %q", empty)
	}
}
