package experiments

import (
	"testing"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/cpustack"
)

// TestCPIStackRidesCellEvents pins the delivery contract for armed
// accounting: the owning simulation's event carries a frozen stack that
// conserves the cell's cycles, the start observer sees the live stack
// before the simulation runs, and a memo hit re-delivers the owner's
// snapshot.
func TestCPIStackRidesCellEvents(t *testing.T) {
	spec := observerSpec()
	spec.CPIStack = true
	r := NewRunner(spec)
	var events []CellEvent
	var starts []CellStart
	r.SetCellObserver(func(ev CellEvent) { events = append(events, ev) }, nil)
	r.SetCellStartObserver(func(cs CellStart) { starts = append(starts, cs) })
	r.SetExperiment("T2")

	m := config.Baseline()
	res, err := runCell(r, m, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := runCell(r, m, "compress"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("observer fired %d times, want 2", len(events))
	}
	// Only the owning simulation starts; the memo hit never enters the
	// simulator.
	if len(starts) != 1 {
		t.Fatalf("start observer fired %d times, want 1", len(starts))
	}
	if starts[0].Machine != m.Name || starts[0].Workload != "compress" ||
		starts[0].Experiment != "T2" || starts[0].Stack == nil {
		t.Errorf("start event wrong: %+v", starts[0])
	}
	// The live stack handed to the start observer is the one the owner's
	// snapshot froze.
	if got := starts[0].Stack.Total(); got != res.Cycles {
		t.Errorf("live stack total %d, cell ran %d cycles", got, res.Cycles)
	}
	for i, ev := range events {
		if ev.CPIStack == nil {
			t.Fatalf("event %d has no CPI stack", i)
		}
		if err := ev.CPIStack.CheckConservation(res.Cycles); err != nil {
			t.Errorf("event %d: %v", i, err)
		}
	}
	if *events[0].CPIStack != *events[1].CPIStack {
		t.Error("memo hit delivered a different stack than the owner")
	}
}

// TestCPIStackSeesWedgedCell drives the fault-injected wedge through the
// runner with accounting armed: the failed cell's event must still carry
// the partial stack, with the wedged cycles in the store-buffer bucket —
// named attribution, not "useful" — which is exactly the diagnosis the
// status plane shows for a stuck cell.
func TestCPIStackSeesWedgedCell(t *testing.T) {
	spec := observerSpec()
	spec.CPIStack = true
	fault, err := ParseFault("wedge:compress")
	if err != nil {
		t.Fatal(err)
	}
	spec.Fault = fault
	r := NewRunner(spec)
	var events []CellEvent
	r.SetCellObserver(func(ev CellEvent) { events = append(events, ev) }, nil)

	if _, err := runCell(r, config.Baseline(), "compress"); err == nil {
		t.Fatal("wedged cell succeeded")
	}
	if len(events) != 1 {
		t.Fatalf("observer fired %d times, want 1", len(events))
	}
	ev := events[0]
	if ev.Err == nil || ev.Result != nil {
		t.Fatalf("expected a failed cell, got err %v result %v", ev.Err, ev.Result)
	}
	if ev.CPIStack == nil {
		t.Fatal("failed cell carries no CPI stack")
	}
	sb := ev.CPIStack.Buckets[cpustack.StoreBufferFull]
	useful := ev.CPIStack.Buckets[cpustack.Useful]
	if sb == 0 || sb <= useful {
		t.Errorf("wedge not attributed: store-buffer-full %d, useful %d", sb, useful)
	}
}

// TestCPIStackDoesNotPerturbTables is the engine-level byte-identity gate:
// a full experiment table must render identically with accounting on and
// off.
func TestCPIStackDoesNotPerturbTables(t *testing.T) {
	spec := Spec{Workloads: []string{"compress", "eqntott"}, Insts: 8_000, Seed: 42}
	plain := NewRunner(spec)
	_, wantTable, err := F1PortCount(plain)
	if err != nil {
		t.Fatal(err)
	}
	spec.CPIStack = true
	armed := NewRunner(spec)
	_, gotTable, err := F1PortCount(armed)
	if err != nil {
		t.Fatal(err)
	}
	if gotTable.String() != wantTable.String() {
		t.Errorf("accounting changed the table:\n--- off ---\n%s\n--- on ---\n%s", wantTable, gotTable)
	}
}

// TestCPIStackSurvivesStoreRoundTrip runs a durable cell with accounting
// armed, then restores it in a fresh campaign: the store-hit event must
// deliver the original breakdown bucket for bucket.
func TestCPIStackSurvivesStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	open := func() *cellstore.Store {
		st, err := cellstore.Open(dir, cellstore.Options{})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}

	spec := observerSpec()
	spec.CPIStack = true
	spec.Store = open()
	first := NewRunner(spec)
	var owner []CellEvent
	first.SetCellObserver(func(ev CellEvent) { owner = append(owner, ev) }, nil)
	if _, err := runCell(first, config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	if len(owner) != 1 || owner[0].CPIStack == nil {
		t.Fatal("owning run delivered no CPI stack")
	}

	spec.Store = open()
	second := NewRunner(spec)
	var restored []CellEvent
	second.SetCellObserver(func(ev CellEvent) { restored = append(restored, ev) }, nil)
	if _, err := runCell(second, config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	if len(restored) != 1 {
		t.Fatalf("restore run fired %d events, want 1", len(restored))
	}
	ev := restored[0]
	if !ev.StoreHit {
		t.Fatal("second campaign did not hit the store")
	}
	if ev.CPIStack == nil {
		t.Fatal("store hit delivered no CPI stack")
	}
	if *ev.CPIStack != *owner[0].CPIStack {
		t.Errorf("restored stack differs:\nowner:    %v\nrestored: %v",
			owner[0].CPIStack.Buckets, ev.CPIStack.Buckets)
	}
}
