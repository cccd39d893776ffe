package experiments

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/cpu"
)

// storeSpec is QuickSpec over a durable store in dir.
func storeSpec(t *testing.T, dir string) (Spec, *cellstore.Store) {
	t.Helper()
	st, err := cellstore.Open(dir, cellstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	spec := QuickSpec()
	spec.Store = st
	return spec, st
}

// sameResult asserts two results are identical including the full counter
// set in creation order — the byte-identity contract behind restored cells.
func sameResult(t *testing.T, got, want *cpu.Result) {
	t.Helper()
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
		got.UserInsts != want.UserInsts || got.KernelInsts != want.KernelInsts ||
		got.Loads != want.Loads || got.Stores != want.Stores ||
		got.Branches != want.Branches || got.Mispredicts != want.Mispredicts {
		t.Fatalf("scalar mismatch: got %+v want %+v", got, want)
	}
	if got.IPC != want.IPC { //portlint:ignore floatcmp restored IPC must be bit-identical, not approximately equal
		t.Fatalf("IPC mismatch: got %v want %v", got.IPC, want.IPC)
	}
	gn, wn := got.Counters.Names(), want.Counters.Names()
	if !reflect.DeepEqual(gn, wn) {
		t.Fatalf("counter names (order included) differ:\ngot  %v\nwant %v", gn, wn)
	}
	for _, name := range wn {
		if got.Counters.Get(name) != want.Counters.Get(name) {
			t.Fatalf("counter %s: got %d want %d", name, got.Counters.Get(name), want.Counters.Get(name))
		}
	}
}

// TestStoreColdWarmOffIdentical runs the same cell with no store, a cold
// store and a warm store and asserts all three results are identical — the
// core byte-identity contract — and that the warm run simulated nothing.
func TestStoreColdWarmOffIdentical(t *testing.T) {
	dir := t.TempDir()
	off, err := runCell(NewRunner(QuickSpec()), config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}

	spec, st := storeSpec(t, dir)
	cold := NewRunner(spec)
	res, err := runCell(cold, config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, off)
	if s := st.Stats(); s.Misses != 1 || s.Puts != 1 || s.Hits != 0 {
		t.Fatalf("cold store stats = %+v, want 1 miss, 1 put", s)
	}

	spec2, st2 := storeSpec(t, dir)
	warm := NewRunner(spec2)
	res2, err := runCell(warm, config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res2, off)
	if warm.SimulatedCycles() != 0 {
		t.Fatalf("warm run simulated %d cycles, want 0", warm.SimulatedCycles())
	}
	if s := st2.Stats(); s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("warm store stats = %+v, want 1 hit", s)
	}
}

// TestStoreHitEmitsCellEvent asserts restored cells reach the telemetry
// observer with StoreHit set (they bypass runStream's observer defer) and
// that memo waiters on the same runner still report MemoHit.
func TestStoreHitEmitsCellEvent(t *testing.T) {
	dir := t.TempDir()
	spec, _ := storeSpec(t, dir)
	if _, err := runCell(NewRunner(spec), config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}

	spec2, _ := storeSpec(t, dir)
	r := NewRunner(spec2)
	var events []CellEvent
	r.SetCellObserver(func(ev CellEvent) { events = append(events, ev) }, nil)
	if _, err := runCell(r, config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	if _, err := runCell(r, config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 {
		t.Fatalf("observer saw %d events, want 2", len(events))
	}
	if !events[0].StoreHit || events[0].MemoHit || events[0].Result == nil {
		t.Fatalf("first event = %+v, want StoreHit with result", events[0])
	}
	if !events[1].MemoHit || events[1].StoreHit {
		t.Fatalf("second event = %+v, want MemoHit only", events[1])
	}
}

// TestStoreFailurePersisted drives a poisoned cell through a cold store,
// then restores it warm: the cell fails exactly once across runs, with the
// same headline, ErrCellPanic identity and the original stack preserved.
func TestStoreFailurePersisted(t *testing.T) {
	dir := t.TempDir()
	spec, _ := storeSpec(t, dir)
	spec.Fault = &Fault{Mode: FaultPanic, Workload: "compress", After: 100}
	_, err := runCell(NewRunner(spec), config.Baseline(), "compress")
	if err == nil {
		t.Fatal("poisoned cell did not fail")
	}

	spec2, st2 := storeSpec(t, dir)
	spec2.Fault = &Fault{Mode: FaultPanic, Workload: "compress", After: 100}
	warm := NewRunner(spec2)
	_, err2 := runCell(warm, config.Baseline(), "compress")
	if err2 == nil {
		t.Fatal("restored poisoned cell did not fail")
	}
	if s := st2.Stats(); s.Hits != 1 {
		t.Fatalf("warm store stats = %+v, want the failure restored as a hit", s)
	}
	if warm.SimulatedCycles() != 0 {
		t.Fatal("restoring a stored failure should not simulate")
	}
	if err.Error() != err2.Error() {
		t.Fatalf("restored failure headline differs:\ncold %q\nwarm %q", err, err2)
	}
	if !errors.Is(err2, ErrCellPanic) {
		t.Fatalf("restored failure lost ErrCellPanic identity: %v", err2)
	}
	var ce *CellError
	if !errors.As(err2, &ce) {
		t.Fatalf("restored failure is not a CellError: %T", err2)
	}
	if !strings.Contains(ce.Stack, "goroutine") {
		t.Fatal("restored failure lost the original panic stack")
	}
	if ce.Machine.Name != config.Baseline().Name {
		t.Fatalf("restored failure machine = %q", ce.Machine.Name)
	}
}

// TestStoreFaultInKey asserts a poisoned cell and its clean twin live under
// different store identities: a store warmed by a faulted campaign never
// leaks the failure into a clean one, and vice versa.
func TestStoreFaultInKey(t *testing.T) {
	dir := t.TempDir()
	spec, _ := storeSpec(t, dir)
	spec.Fault = &Fault{Mode: FaultPanic, Workload: "compress", After: 100}
	if _, err := runCell(NewRunner(spec), config.Baseline(), "compress"); err == nil {
		t.Fatal("poisoned cell did not fail")
	}

	clean, st := storeSpec(t, dir)
	res, err := runCell(NewRunner(clean), config.Baseline(), "compress")
	if err != nil || res == nil {
		t.Fatalf("clean run poisoned by stored fault entry: %v", err)
	}
	if s := st.Stats(); s.Hits != 0 || s.Misses != 1 {
		t.Fatalf("clean store stats = %+v, want a miss (different identity)", s)
	}
}

// TestStoreQuarantineResimulates corrupts the stored entry on disk and
// asserts the warm run detects it, quarantines, re-simulates to the correct
// result and heals the store with a fresh Put.
func TestStoreQuarantineResimulates(t *testing.T) {
	dir := t.TempDir()
	spec, _ := storeSpec(t, dir)
	want, err := runCell(NewRunner(spec), config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.cell.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries = %v, %v", entries, err)
	}
	data, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(entries[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	spec2, st2 := storeSpec(t, dir)
	warm := NewRunner(spec2)
	res, err := runCell(warm, config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res, want)
	if warm.SimulatedCycles() == 0 {
		t.Fatal("corrupt entry should force a re-simulation")
	}
	s := st2.Stats()
	if s.Quarantined != 1 || s.Puts != 1 {
		t.Fatalf("store stats = %+v, want 1 quarantine and 1 healing put", s)
	}
	if _, err := os.Stat(entries[0] + ".corrupt"); err != nil {
		t.Fatalf("corrupt entry not preserved for post-mortem: %v", err)
	}

	// Third run: the healed store serves the re-simulated result.
	spec3, st3 := storeSpec(t, dir)
	res3, err := runCell(NewRunner(spec3), config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, res3, want)
	if s := st3.Stats(); s.Hits != 1 {
		t.Fatalf("healed store stats = %+v, want 1 hit", s)
	}
}

// TestStoreKeyCoordinates pins what participates in the durable identity:
// machine config, workload, seed and instruction budget all separate cells.
func TestStoreKeyCoordinates(t *testing.T) {
	dir := t.TempDir()
	spec, st := storeSpec(t, dir)
	r := NewRunner(spec)
	if _, err := runCell(r, config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	if _, err := runCell(r, config.Baseline(), "eqntott"); err != nil {
		t.Fatal(err)
	}
	if _, err := runCell(r, config.DualPort(), "compress"); err != nil {
		t.Fatal(err)
	}
	if s := st.Stats(); s.Puts != 3 || s.Hits != 0 {
		t.Fatalf("store stats = %+v, want 3 distinct entries", s)
	}

	// A different seed or budget must miss the warm store.
	for _, mutate := range []func(*Spec){
		func(s *Spec) { s.Seed++ },
		func(s *Spec) { s.Insts /= 2 },
	} {
		spec2, st2 := storeSpec(t, dir)
		mutate(&spec2)
		if _, err := runCell(NewRunner(spec2), config.Baseline(), "compress"); err != nil {
			t.Fatal(err)
		}
		if s := st2.Stats(); s.Hits != 0 || s.Misses != 1 {
			t.Fatalf("mutated-spec store stats = %+v, want a miss", s)
		}
	}
}

// TestStoreDegradedRunsClean points the runner at a store whose directory
// is gone mid-campaign: every cell still computes, the campaign succeeds,
// and the store reports itself degraded instead of erroring the run.
func TestStoreDegradedRunsClean(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "store")
	spec, st := storeSpec(t, dir)
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	// Plant a file where the store's temp files would go so CreateTemp
	// cannot succeed.
	if err := os.WriteFile(dir, []byte("not a directory"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := NewRunner(spec)
	res, err := runCell(r, config.Baseline(), "compress")
	if err != nil || res == nil {
		t.Fatalf("campaign failed over store trouble: %v", err)
	}
	if s := st.Stats(); !s.Degraded || s.PutFailures != 1 {
		t.Fatalf("store stats = %+v, want degraded with 1 put failure", s)
	}
}
