package experiments

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/cpustack"
)

// storeSpec is QuickSpec over a durable store in dir, closed when the
// test ends.
func storeSpec(t *testing.T, dir string) (Spec, *cellstore.Store) {
	t.Helper()
	st, err := cellstore.Open(dir, cellstore.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
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

// simulatedResult simulates compress on the baseline machine, with cycle
// accounting armed when cpi is set.
func simulatedResult(t *testing.T, cpi bool) *cpu.Result {
	t.Helper()
	spec := QuickSpec()
	spec.CPIStack = cpi
	res, err := runCell(NewRunner(spec), config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// restored encodes a result as a Put stores it and decodes it as a
// restore does.
func restored(t *testing.T, res *cpu.Result) *cpu.Result {
	t.Helper()
	raw, err := encodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeResult(raw)
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestRestoredResultMatchesSimulated restores an encoded result and
// requires the simulated one back counter for counter, in creation order,
// with its CPI stack bucket for bucket. Counter names outside the stats
// vocabulary, one of them spelled with JSON escapes, restore verbatim.
func TestRestoredResultMatchesSimulated(t *testing.T) {
	sim := simulatedResult(t, true)
	if sim.CPIStack == nil {
		t.Fatal("simulated result carries no CPI stack")
	}
	got := restored(t, sim)
	sameResult(t, got, sim)
	if got.CPIStack == nil || *got.CPIStack != *sim.CPIStack {
		t.Errorf("restored CPI stack = %v, want %v", got.CPIStack, sim.CPIStack.Buckets)
	}

	odd := *sim
	odd.Counters = cpu.NewResult().Counters
	for _, name := range sim.Counters.Names() {
		odd.Counters.Add(name, sim.Counters.Get(name))
	}
	odd.Counters.Add("test.outside_vocabulary", 7)
	odd.Counters.Add(`port.<"quoted">\name`, 9)
	sameResult(t, restored(t, &odd), &odd)
}

// TestRestoreAllocations bounds what decoding a stored result allocates:
// one cpu.NewResult block, which holds the result, its counter set and
// the set's names and values, and, with cycle accounting armed, its CPI
// stack, 1 and 2 objects in all. The payload is read in one pass without
// reflection, its counter names decode into the stats vocabulary's own
// strings and its names and values wait in arrays on the stack, so the
// count does not grow with the result's 60-odd counters. The
// encoding/json decoder made 13 (and about 80 when it copied each name);
// one that built the result and its set as four objects, as the decoder
// before the result block did, makes 4.
func TestRestoreAllocations(t *testing.T) {
	const maxAllocs, maxStackAllocs = 2, 1
	decodeAllocs := func(cpi bool) float64 {
		raw, err := encodeResult(simulatedResult(t, cpi))
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(100, func() {
			if _, err := decodeResult(raw); err != nil {
				t.Fatal(err)
			}
		})
	}
	plain, armed := decodeAllocs(false), decodeAllocs(true)
	t.Logf("decodeResult allocates %v objects, %v with a CPI stack", plain, armed)
	if plain > maxAllocs {
		t.Errorf("decoding a stored result allocates %v objects; want at most %d", plain, maxAllocs)
	}
	if armed > plain+maxStackAllocs {
		t.Errorf("decoding a stored result with a CPI stack allocates %v objects, %v without; want at most %d more",
			armed, plain, maxStackAllocs)
	}
}

// TestStoredCPIStackDecodes feeds decodeResult the cpi_stack spellings a
// JSON writer may produce: null and an empty object, whitespace, and an
// escaped bucket name decode as encoding/json would decode them into a
// map; an unknown bucket fails with the error FromMap gives it, and a
// value that is no uint64 fails.
func TestStoredCPIStackDecodes(t *testing.T) {
	payload := func(stack string) json.RawMessage {
		return json.RawMessage(`{"cycles":5,"counter_names":[],"counter_values":[],"cpi_stack":` + stack + `}`)
	}
	for _, tc := range []struct {
		stack string
		want  *cpustack.Snapshot
	}{
		{`null`, nil},
		{`{}`, &cpustack.Snapshot{}},
		{` { "useful" : 3 , "mem.fill-wait":2 } `, &cpustack.Snapshot{Buckets: [cpustack.NumBuckets]uint64{cpustack.Useful: 3, cpustack.MemFillWait: 2}}},
		{`{"\u0075seful":4,"commit-stall":18446744073709551615}`, &cpustack.Snapshot{Buckets: [cpustack.NumBuckets]uint64{cpustack.Useful: 4, cpustack.CommitStall: 1<<64 - 1}}},
	} {
		res, err := decodeResult(payload(tc.stack))
		if err != nil {
			t.Errorf("cpi_stack %s: %v", tc.stack, err)
			continue
		}
		if !reflect.DeepEqual(res.CPIStack, tc.want) {
			t.Errorf("cpi_stack %s decodes to %v, want %v", tc.stack, res.CPIStack, tc.want)
		}
	}
	_, err := decodeResult(payload(`{"useful":1,"no-such-bucket":2}`))
	if want := `experiments: stored result: cpustack: unknown bucket "no-such-bucket"`; err == nil || err.Error() != want {
		t.Errorf("unknown bucket: err = %v, want %s", err, want)
	}
	for _, bad := range []string{`{"useful":-1}`, `{"useful":1.5}`, `{"useful":"1"}`, `{"useful":18446744073709551616}`, `[1]`} {
		if _, err := decodeResult(payload(bad)); err == nil {
			t.Errorf("cpi_stack %s decoded", bad)
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
	// Plant a file where the store's directory was, so no temp file can
	// be created.
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

// goldenEntries are entry files written by the encoding/json codecs the
// hand-written ones replaced, at -quick -insts 4000 on T2's baseline-1port:
// compress with cycle accounting armed, and compress poisoned with
// panic:compress:100.
var goldenEntries = []struct {
	file  string
	fault string
}{
	{"testdata/store/c86ccd37db6d82915412ff458bea2e4d.cell.json", ""},
	{"testdata/store/d0413ac4f8f369adde7b38d3b54538dd.cell.json", "panic:compress:100"},
}

// TestGoldenEntriesRoundTrip decodes each golden entry and re-encodes it
// byte for byte, its result payload too, under the file name it has: a
// store written by the older codecs keeps its bytes and its addresses.
func TestGoldenEntriesRoundTrip(t *testing.T) {
	for _, g := range goldenEntries {
		data, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		e, err := cellstore.DecodeEntry(data)
		if err != nil {
			t.Fatalf("%s: %v", g.file, err)
		}
		if name := e.Key.ID() + ".cell.json"; name != filepath.Base(g.file) {
			t.Errorf("%s: the key's ID names the file %s", g.file, name)
		}
		again, err := cellstore.EncodeEntry(e)
		if err != nil || string(again) != string(data) {
			t.Errorf("%s: re-encoded entry differs (err %v):\ngot  %s\nwant %s", g.file, err, again, data)
		}
		if g.fault != "" {
			if e.Failure == nil || !e.Failure.Panicked || e.Failure.Stack == "" {
				t.Errorf("%s: failure = %+v, want a contained panic with its stack", g.file, e.Failure)
			}
			continue
		}
		res, err := decodeResult(e.Result)
		if err != nil {
			t.Fatal(err)
		}
		if res.CPIStack == nil || res.CPIStack.CheckConservation(res.Cycles) != nil {
			t.Errorf("%s: restored CPI stack %v does not account for %d cycles", g.file, res.CPIStack, res.Cycles)
		}
		payload, err := encodeResult(res)
		if err != nil || string(payload) != string(e.Result) {
			t.Errorf("%s: re-encoded result differs (err %v):\ngot  %s\nwant %s", g.file, err, payload, e.Result)
		}
	}
}

// TestGoldenStoreRestores runs each golden entry's cell against a store
// holding the golden files: both restore, with nothing simulated and
// nothing quarantined, the poisoned cell as its contained panic.
func TestGoldenStoreRestores(t *testing.T) {
	dir := t.TempDir()
	for _, g := range goldenEntries {
		data, err := os.ReadFile(g.file)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(g.file)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, g := range goldenEntries {
		spec, st := storeSpec(t, dir)
		spec.Insts, spec.CPIStack = 4_000, g.fault == ""
		if g.fault != "" {
			f, err := ParseFault(g.fault)
			if err != nil {
				t.Fatal(err)
			}
			spec.Fault = f
		}
		r := NewRunner(spec)
		res, err := runCell(r, config.Baseline(), "compress")
		if s := st.Stats(); s.Hits != 1 || s.Quarantined != 0 || r.SimulatedCycles() != 0 {
			t.Errorf("%s: store stats %+v after simulating %d cycles; want 1 hit", g.file, s, r.SimulatedCycles())
		}
		switch {
		case g.fault == "" && (err != nil || res.CPIStack == nil):
			t.Errorf("%s: restored %v, %v; want a result with its CPI stack", g.file, res, err)
		case g.fault != "" && !errors.Is(err, ErrCellPanic):
			t.Errorf("%s: restored error %v, want a contained panic", g.file, err)
		}
	}
}
