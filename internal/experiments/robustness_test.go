package experiments

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/workload"
)

// faultSpec is a small spec with one poisoned workload.
func faultSpec(f *Fault) Spec {
	return Spec{
		Workloads: []string{"compress", "eqntott", "database"},
		Insts:     5_000,
		Seed:      42,
		Parallel:  2,
		Fault:     f,
	}
}

// TestFaultPanicContainedInExperiment is the headline containment test: one
// poisoned cell in a three-workload experiment yields exactly one diagnosed
// CellError — with configuration, stack, and flight-recorder events — while
// the healthy cells complete.
func TestFaultPanicContainedInExperiment(t *testing.T) {
	r := NewRunner(faultSpec(&Fault{Mode: FaultPanic, Workload: "eqntott", After: 1_000}))
	_, _, err := T2Characterisation(r)
	if err == nil {
		t.Fatal("poisoned experiment returned no error")
	}
	if !errors.Is(err, ErrCellPanic) {
		t.Fatalf("err = %v, want ErrCellPanic in the tree", err)
	}
	ces := CellErrors(err)
	if len(ces) != 1 {
		t.Fatalf("%d CellErrors, want exactly 1: %v", len(ces), err)
	}
	ce := ces[0]
	if ce.Workload != "eqntott" {
		t.Errorf("CellError names workload %q, want the poisoned eqntott", ce.Workload)
	}
	if ce.Machine.Name == "" {
		t.Error("CellError carries no machine configuration")
	}
	if _, jerr := ce.Machine.ToJSON(); jerr != nil {
		t.Errorf("CellError machine does not serialise: %v", jerr)
	}
	if ce.Seed != 42 || ce.Insts != 5_000 {
		t.Errorf("CellError identity seed=%d insts=%d, want 42/5000", ce.Seed, ce.Insts)
	}
	if !strings.Contains(ce.Stack, "panic") && !strings.Contains(ce.Stack, "goroutine") {
		t.Errorf("CellError stack looks empty: %q", ce.Stack)
	}
	// The fault fired after 1000 clean instructions, so the recorder (armed
	// automatically for poisoned cells) must have filled well past 64 events.
	if len(ce.Events) < 64 {
		t.Errorf("flight recorder captured %d events, want >= 64", len(ce.Events))
	}
	if !strings.Contains(ce.Detail(), "machine configuration:") {
		t.Error("Detail() omits the machine configuration block")
	}
	// The healthy cells ran to completion: real simulated work accumulated.
	if r.SimulatedInstructions() == 0 {
		t.Error("no healthy cell completed alongside the contained failure")
	}
}

// TestFaultBadInstDrivesStoreBufferPanic checks that a corrupted instruction
// reaches the store buffer's real validation panic at commit, and that the
// containment boundary converts it into a CellError instead of crashing.
func TestFaultBadInstDrivesStoreBufferPanic(t *testing.T) {
	r := NewRunner(faultSpec(&Fault{Mode: FaultBadInst, Workload: "compress", After: 500}))
	_, err := runCell(r, config.Baseline(), "compress")
	if err == nil {
		t.Fatal("badinst cell returned no error")
	}
	if !errors.Is(err, ErrCellPanic) {
		t.Fatalf("err = %v, want ErrCellPanic", err)
	}
	if !strings.Contains(err.Error(), "store size 0 unsupported") {
		t.Errorf("err = %v, want the store buffer's size-validation panic", err)
	}
	ces := CellErrors(err)
	if len(ces) != 1 || len(ces[0].Events) == 0 {
		t.Errorf("badinst CellError missing flight-recorder events: %v", err)
	}
}

// TestFaultWedgeDiagnosedByWatchdog checks the stall path: a store buffer
// that never drains is caught by the forward-progress watchdog and the
// diagnosis names the wedged resource.
func TestFaultWedgeDiagnosedByWatchdog(t *testing.T) {
	r := NewRunner(faultSpec(&Fault{Mode: FaultWedge, Workload: "eqntott"}))
	_, err := runCell(r, config.Baseline(), "eqntott")
	if err == nil {
		t.Fatal("wedged cell returned no error")
	}
	if !errors.Is(err, cpu.ErrStall) {
		t.Fatalf("err = %v, want cpu.ErrStall", err)
	}
	if !strings.Contains(err.Error(), "store buffer") {
		t.Errorf("stall diagnosis %q does not name the wedged store buffer", err)
	}
	ces := CellErrors(err)
	if len(ces) != 1 {
		t.Fatalf("%d CellErrors, want 1", len(ces))
	}
	if !ces[0].Machine.Ports.FaultStuckDrain {
		t.Error("CellError machine does not carry the armed wedge knob; a repro bundle would not reproduce")
	}
	if ces[0].Stack != "" {
		t.Errorf("watchdog stall is not a panic; stack should be empty, got %d bytes", len(ces[0].Stack))
	}
}

// TestMemoCachesFailures pins the failure-memoisation decision: the simulator
// is deterministic, so a failed cell is cached like a result and every caller
// — sequential or concurrent — receives the same *CellError, never a silent
// (nil, nil). This is the regression test for the memo-poisoning bug where a
// panicking owner closed done before storing anything.
func TestMemoCachesFailures(t *testing.T) {
	r := NewRunner(faultSpec(&Fault{Mode: FaultPanic, Workload: "eqntott", After: 100}))

	const callers = 16
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := runCell(r, config.Baseline(), "eqntott")
			if res != nil {
				t.Errorf("caller %d got a result from a poisoned cell", i)
			}
			errs[i] = err
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d received (nil, nil) from a failed cell: the memo entry was poisoned", i)
		}
		if err != errs[0] {
			t.Fatalf("caller %d received a different error object; failure was re-simulated instead of memoised", i)
		}
	}
	// A later sequential call still hits the cached failure.
	if _, err := runCell(r, config.Baseline(), "eqntott"); err != errs[0] {
		t.Errorf("sequential retry got %v, want the memoised CellError", err)
	}
}

// TestFillContainsPanicBeforeRelease unit-tests the singleflight owner path
// directly: the deferred recover must store the error before done closes.
func TestFillContainsPanicBeforeRelease(t *testing.T) {
	r := NewRunner(Spec{Workloads: []string{"compress"}, Insts: 7, Seed: 3, Parallel: 1})
	e := &memoEntry{done: make(chan struct{})}
	c := cellReq{m: config.Baseline(), planStream: named("compress")}
	r.fill(e, &c, func() (*cpu.Result, error) { panic("owner exploded") })
	select {
	case <-e.done:
	default:
		t.Fatal("fill returned without closing done")
	}
	if e.res != nil {
		t.Errorf("panicked fill stored a result: %v", e.res)
	}
	if e.err == nil || !errors.Is(e.err, ErrCellPanic) {
		t.Fatalf("e.err = %v, want ErrCellPanic", e.err)
	}
	var ce *CellError
	if !errors.As(e.err, &ce) {
		t.Fatalf("e.err = %T, want *CellError", e.err)
	}
	if ce.Seed != 3 || ce.Insts != 7 || ce.Workload != "compress" || ce.Machine != config.Baseline() || ce.Profile == nil {
		t.Errorf("backstop CellError identity %s on %s seed=%d insts=%d, want the compress cell on baseline at 3/7",
			ce.Workload, ce.Machine.Name, ce.Seed, ce.Insts)
	}
	if ce.Stack == "" {
		t.Error("backstop CellError carries no stack")
	}
}

// TestBundleRoundTripAndDeterministicReplay drives the full repro loop:
// fail a cell, bundle it, encode/parse the bundle, replay it twice, and
// require both replays to reproduce the identical failure.
func TestBundleRoundTripAndDeterministicReplay(t *testing.T) {
	spec := faultSpec(&Fault{Mode: FaultWedge, Workload: "eqntott"})
	r := NewRunner(spec)
	_, err := runCell(r, config.Baseline(), "eqntott")
	ces := CellErrors(err)
	if len(ces) != 1 {
		t.Fatalf("setup: %d CellErrors from wedged cell: %v", len(ces), err)
	}

	data, err := BundleFor(ces[0], spec).Encode()
	if err != nil {
		t.Fatal(err)
	}
	// A single program's bundle encodes as it did before bundles could
	// describe multiprograms.
	if strings.Contains(string(data), `"processes"`) || strings.Contains(string(data), `"quantum"`) {
		t.Errorf("single-program bundle encodes multiprogram fields:\n%s", data)
	}
	b, err := ParseBundle(data)
	if err != nil {
		t.Fatalf("ParseBundle on our own Encode output: %v", err)
	}
	if !b.Machine.Ports.FaultStuckDrain {
		t.Fatal("bundle lost the wedge knob")
	}

	replay := func() *CellError {
		t.Helper()
		res, err := b.Replay(nil, false)
		if err == nil {
			t.Fatalf("replay did not reproduce; got clean result %+v", res)
		}
		ces := CellErrors(err)
		if len(ces) != 1 {
			t.Fatalf("replay produced %d CellErrors, want 1: %v", len(ces), err)
		}
		return ces[0]
	}
	first, second := replay(), replay()
	if first.Error() != second.Error() {
		t.Errorf("replays diverged:\n  first:  %s\n  second: %s", first, second)
	}
	if !reflect.DeepEqual(first.Events, second.Events) {
		t.Errorf("replay flight-recorder events diverged (%d vs %d events)", len(first.Events), len(second.Events))
	}
	if len(first.Events) == 0 {
		t.Error("replay ran without the flight recorder")
	}
	if first.Error() != ces[0].Error() {
		t.Errorf("replay failure %q differs from the original %q", first, ces[0])
	}
}

// TestMultiprogramBundleReplays fails A6's two-process compress cell and
// replays its bundle: the bundle carries the multiprogramming level
// through Encode and ParseBundle, the replay reproduces the failure, and
// without the fault it reruns the campaign's two-process stream.
func TestMultiprogramBundleReplays(t *testing.T) {
	fault, err := ParseFault("panic:compress-x2:100")
	if err != nil {
		t.Fatal(err)
	}
	// 20k instructions span context switches at A6's 5k mean quantum.
	spec := Spec{Workloads: []string{"compress"}, Insts: 20_000, Seed: 42, Parallel: 1, Fault: fault}
	_, _, err = A6Multiprogramming(NewRunner(spec))
	ces := CellErrors(err)
	if len(ces) == 0 {
		t.Fatalf("A6 with a poisoned compress-x2 reported no cell failure: %v", err)
	}
	ce := ces[0]
	if ce.Workload != "compress-x2" || ce.Processes != 2 || ce.Quantum != 5000 || ce.Profile == nil {
		t.Fatalf("CellError stream = %s, %d processes, quantum %d, profile %v", ce.Workload, ce.Processes, ce.Quantum, ce.Profile)
	}
	data, err := BundleFor(ce, spec).Encode()
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseBundle(data)
	if err != nil {
		t.Fatalf("ParseBundle on our own Encode output: %v", err)
	}
	if b.Processes != 2 || b.Quantum != 5000 {
		t.Errorf("parsed bundle runs %d processes at quantum %d, want 2 at 5000", b.Processes, b.Quantum)
	}
	_, err = b.Replay(nil, false)
	got := CellErrors(err)
	if len(got) != 1 {
		t.Fatalf("replay produced %d CellErrors, want 1: %v", len(got), err)
	}
	if got[0].Error() != ce.Error() {
		t.Errorf("replay failure %q differs from the original %q", got[0], ce)
	}
	b.Fault = nil
	replayed, err := b.Replay(nil, false)
	if err != nil {
		t.Fatal(err)
	}
	clean := spec
	clean.Fault = nil
	r := NewRunner(clean)
	want, err := r.run(cellReq{m: b.Machine, planStream: a6Plan(clean).streams[1].hashed()})
	if err != nil {
		t.Fatal(err)
	}
	single, err := runCell(r, b.Machine, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Cycles != want.Cycles || replayed.Cycles == single.Cycles {
		t.Errorf("clean replay ran %d cycles; compress-x2 runs %d, compress alone %d",
			replayed.Cycles, want.Cycles, single.Cycles)
	}
}

// TestBundleForCarriesStreamFault checks that stream faults (which live
// outside the machine config) travel in the bundle, and unrelated faults do
// not.
func TestBundleForCarriesStreamFault(t *testing.T) {
	f := &Fault{Mode: FaultPanic, Workload: "compress", After: 9}
	ce := &CellError{Machine: config.Baseline(), Workload: "compress", Seed: 1, Insts: 100}
	if b := BundleFor(ce, Spec{Fault: f}); b.Fault != f {
		t.Error("matching stream fault not attached to the bundle")
	}
	other := &CellError{Machine: config.Baseline(), Workload: "eqntott", Seed: 1, Insts: 100}
	if b := BundleFor(other, Spec{Fault: f}); b.Fault != nil {
		t.Error("fault attached to a bundle for an unpoisoned workload")
	}
}

// TestParseBundleRejectsGarbage covers the validation edges.
func TestParseBundleRejectsGarbage(t *testing.T) {
	good := &Bundle{Version: BundleVersion, Machine: config.Baseline(), Workload: "compress", Seed: 1, Insts: 10}
	encode := func(mutate func(*Bundle)) []byte {
		t.Helper()
		b := *good
		mutate(&b)
		data, err := b.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"not json", []byte("{"), "parsing repro bundle"},
		{"bad version", encode(func(b *Bundle) { b.Version = 99 }), "version 99 not supported"},
		{"zero insts", encode(func(b *Bundle) { b.Insts = 0 }), "zero instruction budget"},
		{"unknown workload", encode(func(b *Bundle) { b.Workload = "nope" }), `unknown workload "nope"`},
		{"bad machine", encode(func(b *Bundle) { b.Machine.Core.ROBEntries = 0 }), "repro bundle machine"},
		{"negative processes", encode(func(b *Bundle) { b.Processes, b.Quantum = -1, 5000 }), "runs -1 processes"},
		{"too many processes", encode(func(b *Bundle) { b.Processes, b.Quantum = 65, 5000 }), "runs 65 processes"},
		{"short quantum", encode(func(b *Bundle) { b.Processes, b.Quantum = 2, 99 }), "quantum 99 is below the minimum"},
		{"no quantum", encode(func(b *Bundle) { b.Processes = 2 }), "quantum 0 is below the minimum"},
		{"quantum alone", encode(func(b *Bundle) { b.Quantum = 5000 }), "quantum of 5000 but no processes"},
		{"processes without profile", encode(func(b *Bundle) { b.Processes, b.Quantum = 2, 5000 }), "carries no profile"},
	}
	for _, tc := range cases {
		if _, err := ParseBundle(tc.data); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
	if _, err := ParseBundle(encode(func(*Bundle) {})); err != nil {
		t.Errorf("valid bundle rejected: %v", err)
	}
	prof, _ := workload.ByName("compress")
	if _, err := ParseBundle(encode(func(b *Bundle) { b.Profile, b.Processes, b.Quantum = &prof, 8, 5000 })); err != nil {
		t.Errorf("valid multiprogram bundle rejected: %v", err)
	}
}

// TestParseFault covers the -inject syntax.
func TestParseFault(t *testing.T) {
	f, err := ParseFault("panic:compress:1000")
	if err != nil || f.Mode != FaultPanic || f.Workload != "compress" || f.After != 1000 {
		t.Errorf("ParseFault(panic:compress:1000) = %+v, %v", f, err)
	}
	if f.String() != "panic:compress:1000" {
		t.Errorf("String() = %q", f.String())
	}
	f, err = ParseFault("wedge:eqntott")
	if err != nil || f.Mode != FaultWedge || f.After != 0 {
		t.Errorf("ParseFault(wedge:eqntott) = %+v, %v", f, err)
	}
	if f.String() != "wedge:eqntott" {
		t.Errorf("String() = %q", f.String())
	}
	for _, bad := range []string{"", "panic", "panic:", ":compress", "frob:compress", "panic:compress:xyz", "panic:compress:1:2", "wedge:compress:100"} {
		if _, err := ParseFault(bad); err == nil {
			t.Errorf("ParseFault(%q) accepted", bad)
		}
	}
}

// TestCellErrorsWalksJoinedTrees checks extraction through errors.Join and
// wrapping, with pointer dedup (one memoised failure surfacing twice).
func TestCellErrorsWalksJoinedTrees(t *testing.T) {
	ce1 := &CellError{Workload: "a", Err: errors.New("x")}
	ce2 := &CellError{Workload: "b", Err: errors.New("y")}
	tree := errors.Join(
		ce1,
		errors.New("unrelated"),
		errors.Join(ce2, ce1), // ce1 again: memoised failure shared by two experiments
	)
	got := CellErrors(tree)
	if len(got) != 2 || got[0] != ce1 || got[1] != ce2 {
		t.Errorf("CellErrors = %v, want [ce1 ce2] deduped in traversal order", got)
	}
	if CellErrors(nil) != nil {
		t.Error("CellErrors(nil) != nil")
	}
	if CellErrors(errors.New("plain")) != nil {
		t.Error("CellErrors on a plain error returned findings")
	}
}
