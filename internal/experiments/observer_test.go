package experiments

import (
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"portsim/internal/config"
	"portsim/internal/diag"
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
	res1, err := runCell(r, m, "compress")
	if err != nil {
		t.Fatal(err)
	}
	res2, err := runCell(r, m, "compress")
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

	if _, err := runCell(r, config.Baseline(), "compress"); err == nil {
		t.Fatal("poisoned cell succeeded")
	}
	if _, err := runCell(r, config.Baseline(), "compress"); err == nil {
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

// selectExperiments returns the suite's experiments with the given ids.
func selectExperiments(ids ...string) []Experiment {
	var exps []Experiment
	for _, e := range Suite() {
		if slices.Contains(ids, e.ID) {
			exps = append(exps, e)
		}
	}
	return exps
}

// TestTraceCapture resolves a cell by its labels (CellBundle) and replays
// it into a recorder: the bundle describes the planned cell, the replay
// reproduces the campaign's result, and its events are in cycle order. A
// cell the experiments do not plan fails, naming the ones they do.
func TestTraceCapture(t *testing.T) {
	spec := Spec{Workloads: []string{"compress", "eqntott"}, Insts: 5_000, Seed: 42}
	b, err := CellBundle(spec, selectExperiments("T1", "T2", "F1"), "compress", config.Baseline().Name)
	if err != nil {
		t.Fatal(err)
	}
	if b.Machine != config.Baseline() || b.Workload != "compress" || b.Seed != 42 || b.Insts != 5_000 {
		t.Errorf("bundle identity = %s/%s seed %d insts %d", b.Machine.Name, b.Workload, b.Seed, b.Insts)
	}
	if b.Profile == nil || b.Processes != 0 || b.Quantum != 0 || b.Fault != nil {
		t.Errorf("bundle stream = profile %v, %d processes, quantum %d, fault %v", b.Profile, b.Processes, b.Quantum, b.Fault)
	}
	rec := diag.NewRecorder(1 << 16)
	got, err := b.Replay(rec, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runCell(NewRunner(spec), config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
		t.Errorf("replay ran %d cycles / %d insts, the campaign %d / %d", got.Cycles, got.Instructions, want.Cycles, want.Instructions)
	}
	events := rec.Events()
	if len(events) == 0 {
		t.Fatal("replay recorded no events")
	}
	for i := 1; i < len(events); i++ {
		if events[i].Cycle < events[i-1].Cycle {
			t.Fatalf("event cycle order broken at %d", i)
		}
	}
	if rec.Total() != uint64(len(events))+rec.Dropped() {
		t.Errorf("total %d != events %d + dropped %d", rec.Total(), len(events), rec.Dropped())
	}
	_, err = CellBundle(spec, selectExperiments("T1", "T2"), "compress", config.DualPort().Name)
	if err == nil || !strings.Contains(err.Error(), "compress, eqntott") || !strings.Contains(err.Error(), config.Baseline().Name) {
		t.Errorf("unplanned cell: err = %v, want one naming the planned workloads and machines", err)
	}
}

// TestTraceDepthOverride bounds the replay's ring and checks wraparound
// accounting.
func TestTraceDepthOverride(t *testing.T) {
	spec := Spec{Workloads: []string{"compress"}, Insts: 5_000, Seed: 42}
	b, err := CellBundle(spec, selectExperiments("T2"), "compress", config.Baseline().Name)
	if err != nil {
		t.Fatal(err)
	}
	rec := diag.NewRecorder(64)
	if _, err := b.Replay(rec, false); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Events()); n != 64 {
		t.Errorf("recorder holds %d events, want 64", n)
	}
	if rec.Dropped() == 0 {
		t.Error("a 5000-inst cell must overflow a 64-event ring")
	}
}
