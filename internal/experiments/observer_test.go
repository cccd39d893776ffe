package experiments

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"portsim/internal/config"
)

// fakeClock is a deterministic time source for observer tests. The
// runner's workers read it concurrently.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(125 * time.Millisecond)
	return c.t
}

func observerSpec() Spec {
	return Spec{Workloads: []string{"compress"}, Insts: 5_000, Seed: 42}
}

// TestObserverFiresPerSubmission pins the one-event-per-cell contract:
// the owning simulation reports MemoHit=false, every duplicate submission
// reports MemoHit=true with the shared result, and wall time comes from
// the injected clock.
func TestObserverFiresPerSubmission(t *testing.T) {
	r := NewRunner(observerSpec())
	var events []CellEvent
	clock := &fakeClock{t: time.Date(2026, 8, 5, 0, 0, 0, 0, time.UTC)}
	r.SetCellObserver(func(ev CellEvent) { events = append(events, ev) }, clock.now)

	m := config.Baseline()
	res1, err := r.Run(m, "compress")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := r.Run(m, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if res1 != res2 {
		t.Error("memo cache did not share the result")
	}
	if len(events) != 2 {
		t.Fatalf("observer fired %d times, want 2", len(events))
	}
	first, second := events[0], events[1]
	if first.MemoHit {
		t.Error("owning simulation reported MemoHit")
	}
	if !second.MemoHit {
		t.Error("duplicate submission did not report MemoHit")
	}
	for i, ev := range events {
		if ev.Machine != m.Name || ev.Workload != "compress" {
			t.Errorf("event %d identity = %s/%s", i, ev.Machine, ev.Workload)
		}
		if ev.Result == nil || ev.Err != nil {
			t.Errorf("event %d: result %v, err %v", i, ev.Result, ev.Err)
		}
		if len(ev.ConfigJSON) == 0 {
			t.Errorf("event %d missing config JSON", i)
		}
	}
	// The fake clock advances 125ms per read; the owner reads it twice.
	if first.WallSeconds != 0.125 {
		t.Errorf("owner wall = %v, want 0.125", first.WallSeconds)
	}
	if second.WallSeconds != 0 {
		t.Errorf("memo hit wall = %v, want 0", second.WallSeconds)
	}
	if first.Result.Cycles == 0 {
		t.Error("observer result has no cycles")
	}
}

// TestObserverSeesFailures checks a poisoned cell reports Err (and a nil
// Result) through the observer, exactly once per submission.
func TestObserverSeesFailures(t *testing.T) {
	spec := observerSpec()
	fault, err := ParseFault("panic:compress:100")
	if err != nil {
		t.Fatal(err)
	}
	spec.Fault = fault
	r := NewRunner(spec)
	var events []CellEvent
	r.SetCellObserver(func(ev CellEvent) { events = append(events, ev) }, nil)

	if _, err := r.Run(config.Baseline(), "compress"); err == nil {
		t.Fatal("poisoned cell succeeded")
	}
	if _, err := r.Run(config.Baseline(), "compress"); err == nil {
		t.Fatal("memoised poisoned cell succeeded")
	}
	if len(events) != 2 {
		t.Fatalf("observer fired %d times, want 2", len(events))
	}
	for i, ev := range events {
		if ev.Err == nil || ev.Result != nil {
			t.Errorf("event %d: err %v result %v, want failure", i, ev.Err, ev.Result)
		}
	}
	if events[0].MemoHit || !events[1].MemoHit {
		t.Errorf("memo flags = %v/%v, want false/true", events[0].MemoHit, events[1].MemoHit)
	}
	// No clock injected: wall time must be zero, not wall-clock noise.
	if events[0].WallSeconds != 0 {
		t.Errorf("wall without clock = %v, want 0", events[0].WallSeconds)
	}
}

// TestObserverDoesNotPerturbResults runs an experiment with and without
// the observer and requires byte-identical tables — the telemetry-off
// invariant at the engine level.
func TestObserverDoesNotPerturbResults(t *testing.T) {
	spec := Spec{Workloads: []string{"compress", "eqntott"}, Insts: 8_000, Seed: 42}

	plain := NewRunner(spec)
	_, wantTable, err := F1PortCount(plain)
	if err != nil {
		t.Fatal(err)
	}

	observed := NewRunner(spec)
	var count atomic.Int64
	clock := &fakeClock{t: time.Unix(0, 0)}
	observed.SetCellObserver(func(CellEvent) { count.Add(1) }, clock.now)
	_, gotTable, err := F1PortCount(observed)
	if err != nil {
		t.Fatal(err)
	}
	if gotTable.String() != wantTable.String() {
		t.Errorf("observer changed the table:\n--- without ---\n%s\n--- with ---\n%s", wantTable, gotTable)
	}
	// F1 sweeps 3 machines over 2 workloads = 6 submissions.
	if n := count.Load(); n != 6 {
		t.Errorf("observer fired %d times, want 6", n)
	}
}

// TestTraceCapture arms Spec.Trace for one cell and checks the capture:
// right cell, cycle-sorted events, one capture even when more cells
// match, and no capture at all for non-matching specs.
func TestTraceCapture(t *testing.T) {
	spec := Spec{Workloads: []string{"compress", "eqntott"}, Insts: 5_000, Seed: 42,
		Trace: &TraceSpec{Workload: "compress", Machine: config.Baseline().Name}}
	r := NewRunner(spec)
	if r.Trace() != nil {
		t.Fatal("capture exists before any simulation")
	}
	// eqntott on baseline matches the workload filter but not the cell;
	// compress on DualPort matches neither.
	if _, err := r.Run(config.Baseline(), "eqntott"); err != nil {
		t.Fatal(err)
	}
	if r.Trace() != nil {
		t.Fatal("captured a non-matching workload")
	}
	if _, err := r.Run(config.DualPort(), "compress"); err != nil {
		t.Fatal(err)
	}
	if r.Trace() != nil {
		t.Fatal("captured a non-matching machine")
	}
	if _, err := r.Run(config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	cap1 := r.Trace()
	if cap1 == nil {
		t.Fatal("no capture after the matching cell ran")
	}
	if cap1.Machine != config.Baseline().Name || cap1.Workload != "compress" || cap1.Seed != 42 {
		t.Errorf("capture identity = %s/%s seed %d", cap1.Machine, cap1.Workload, cap1.Seed)
	}
	if len(cap1.Events) == 0 {
		t.Fatal("capture has no events")
	}
	for i := 1; i < len(cap1.Events); i++ {
		if cap1.Events[i].Cycle < cap1.Events[i-1].Cycle {
			t.Fatalf("capture cycle order broken at %d", i)
		}
	}
	if cap1.Total != uint64(len(cap1.Events))+cap1.Dropped {
		t.Errorf("total %d != events %d + dropped %d", cap1.Total, len(cap1.Events), cap1.Dropped)
	}
}

// TestTraceDoesNotPerturbResults checks the traced run's table matches an
// untraced run byte for byte.
func TestTraceDoesNotPerturbResults(t *testing.T) {
	spec := Spec{Workloads: []string{"compress"}, Insts: 8_000, Seed: 42}
	plain := NewRunner(spec)
	_, wantTable, err := F1PortCount(plain)
	if err != nil {
		t.Fatal(err)
	}

	spec.Trace = &TraceSpec{Workload: "compress"}
	traced := NewRunner(spec)
	_, gotTable, err := F1PortCount(traced)
	if err != nil {
		t.Fatal(err)
	}
	if gotTable.String() != wantTable.String() {
		t.Errorf("tracing changed the table:\n--- without ---\n%s\n--- with ---\n%s", wantTable, gotTable)
	}
	if traced.Trace() == nil {
		t.Error("no capture from the traced run")
	}
}

// TestTraceDepthOverride bounds the ring and checks wraparound accounting
// survives into the capture.
func TestTraceDepthOverride(t *testing.T) {
	spec := Spec{Workloads: []string{"compress"}, Insts: 5_000, Seed: 42,
		Trace: &TraceSpec{Workload: "compress", Depth: 64}}
	r := NewRunner(spec)
	if _, err := r.Run(config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	c := r.Trace()
	if c == nil {
		t.Fatal("no capture")
	}
	if len(c.Events) != 64 {
		t.Errorf("capture holds %d events, want 64", len(c.Events))
	}
	if c.Dropped == 0 {
		t.Error("a 5000-inst cell must overflow a 64-event ring")
	}
}
