package experiments

import (
	"reflect"
	"testing"

	"portsim/internal/cellstore"
	"portsim/internal/config"
	"portsim/internal/workload"
)

// eachLeaf calls visit once per leaf field reachable from the addressable
// value v (recursing through structs and into the first element of struct
// slices), with that field mutated in place; the field is restored after
// visit returns.
func eachLeaf(t *testing.T, v reflect.Value, path string, visit func(path string)) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachLeaf(t, v.Field(i), path+"."+v.Type().Field(i).Name, visit)
		}
		return
	case reflect.Slice:
		if v.Len() == 0 {
			t.Fatalf("%s: empty slice; pick a fixture that populates it", path)
		}
		eachLeaf(t, v.Index(0), path+"[0]", visit)
		return
	}
	old := reflect.New(v.Type()).Elem()
	old.Set(v)
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 0.125)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "x")
	default:
		t.Fatalf("%s: no mutation for kind %s", path, v.Kind())
	}
	visit(path)
	v.Set(old)
}

// TestCellKeyCoversEveryField pins the identity contract field by field:
// every parameter of the machine and of the workload profile separates
// cells, and only the display labels — Machine.Name, Profile.Name and
// Profile.Description — do not.
func TestCellKeyCoversEveryField(t *testing.T) {
	m := config.Baseline()
	prof, ok := workload.ByName("database") // has kernel regions to mutate
	if !ok {
		t.Fatal("database workload missing")
	}
	// keyOn derives a cell key of m as run does: the stream hashed, the
	// machine's hash memoised by the runner. One runner serves the whole
	// field walk, so its memo must tell every mutated machine apart too.
	keyOn := func(r *Runner, s streamSpec, fault string) cellstore.Key {
		t.Helper()
		s, err := s.hashed()
		if err != nil {
			t.Fatal(err)
		}
		k, err := r.cellKey(&m, &s, fault)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	r := NewRunner(Spec{Seed: 42, Insts: 40_000})
	key := func() cellstore.Key { return keyOn(r, streamSpec{prof: prof}, "") }
	base := key()
	labels := map[string]bool{"Machine.Name": true, "Profile.Name": true, "Profile.Description": true}
	visited := 0
	check := func(path string) {
		visited++
		same := key() == base
		switch {
		case labels[path] && !same:
			t.Errorf("%s is a display label but changed the cell key", path)
		case !labels[path] && same:
			t.Errorf("%s changed without changing the cell key", path)
		}
	}
	eachLeaf(t, reflect.ValueOf(&m).Elem(), "Machine", check)
	eachLeaf(t, reflect.ValueOf(&prof).Elem(), "Profile", check)
	if visited < 80 {
		t.Fatalf("visited only %d leaf fields; the walk is not reaching the configuration", visited)
	}

	for _, o := range []struct {
		name   string
		stream streamSpec
		seed   int64
		insts  uint64
		fault  string
	}{
		{"processes", streamSpec{prof: prof, processes: 1}, 42, 40_000, ""},
		{"quantum", streamSpec{prof: prof, quantum: 1}, 42, 40_000, ""},
		{"seed", streamSpec{prof: prof}, 43, 40_000, ""},
		{"insts", streamSpec{prof: prof}, 42, 40_001, ""},
		{"fault", streamSpec{prof: prof}, 42, 40_000, "wedge:database"},
	} {
		got := keyOn(NewRunner(Spec{Seed: o.seed, Insts: o.insts}), o.stream, o.fault)
		if got == base {
			t.Errorf("%s changed without changing the cell key", o.name)
		}
	}
}

// TestRenamedMachineJoinsMemo checks that a machine differing only in its
// display name is one simulation: the second submission is a memo hit
// that reports its own label under the shared key.
func TestRenamedMachineJoinsMemo(t *testing.T) {
	spec := QuickSpec()
	r := NewRunner(spec)
	var events []CellEvent
	r.SetCellObserver(func(ev CellEvent) { events = append(events, ev) }, nil)
	renamed := config.Baseline()
	renamed.Name = "1-port"
	first, err := runCell(r, config.Baseline(), "compress")
	if err != nil {
		t.Fatal(err)
	}
	second, err := runCell(r, renamed, "compress")
	if err != nil {
		t.Fatal(err)
	}
	if second != first {
		t.Error("renamed machine did not share the memoised result")
	}
	if got := r.SimulatedInstructions(); got != spec.Insts {
		t.Errorf("simulated %d instructions, want one cell's %d", got, spec.Insts)
	}
	if len(events) != 2 || events[0].MemoHit || !events[1].MemoHit {
		t.Fatalf("events = %+v, want one simulation then one memo hit", events)
	}
	if events[1].Machine != "1-port" || events[1].Key != events[0].Key {
		t.Errorf("memo hit reported machine %q key %s, want 1-port under the owner's key %s",
			events[1].Machine, events[1].Key, events[0].Key)
	}
}

// f7Events runs F6 then F7 on database and returns F7's cell events.
func f7Events(t *testing.T, spec Spec) (f6Err error, f7 []CellEvent) {
	t.Helper()
	spec.Workloads = []string{"database"}
	r := NewRunner(spec)
	_, _, f6Err = F6Headline(r)
	r.SetCellObserver(func(ev CellEvent) { f7 = append(f7, ev) }, nil)
	if _, _, err := F7KernelIntensity(r); err != nil {
		t.Fatal(err)
	}
	return f6Err, f7
}

// TestF7MediumJoinsDatabase checks that F7's "medium" point, the stock
// database profile under another name, joins F6's database cells instead
// of simulating them again, while the other intensities simulate.
func TestF7MediumJoinsDatabase(t *testing.T) {
	f6Err, events := f7Events(t, QuickSpec())
	if f6Err != nil {
		t.Fatal(f6Err)
	}
	medium := 0
	for _, ev := range events {
		if ev.Workload == "database-k-medium" {
			medium++
			if !ev.MemoHit {
				t.Errorf("%s on %s simulated instead of joining F6's database cell", ev.Workload, ev.Machine)
			}
		} else if ev.MemoHit {
			t.Errorf("%s on %s unexpectedly joined another cell", ev.Workload, ev.Machine)
		}
	}
	if medium != 3 {
		t.Errorf("saw %d database-k-medium cells, want 3", medium)
	}
}

// TestFaultArmedDatabaseNeverJoinsMedium checks the fault descriptor is
// part of the identity: with database poisoned, F6's failing database
// cells share their stream with F7's medium point but not their key, so
// F7 simulates medium cleanly.
func TestFaultArmedDatabaseNeverJoinsMedium(t *testing.T) {
	spec := QuickSpec()
	spec.Fault = &Fault{Mode: FaultPanic, Workload: "database", After: 100}
	f6Err, events := f7Events(t, spec)
	if f6Err == nil {
		t.Fatal("poisoned F6 database cells did not fail")
	}
	for _, ev := range events {
		if ev.Err != nil || ev.MemoHit {
			t.Errorf("%s on %s: memo hit %v, err %v; want a clean simulation",
				ev.Workload, ev.Machine, ev.MemoHit, ev.Err)
		}
	}
}

// TestCellKeyIDsStable pins the content address (Key.ID) of four cells
// and of one arena trace, as a durable store and a manifest record them.
// A store names its entries by these IDs, so a change that moved one,
// however the key is derived, would silently orphan every stored cell.
func TestCellKeyIDsStable(t *testing.T) {
	want := map[string]string{
		"compress@baseline-1port":   "7c1e688f860d26e083ed4e3ef8edf493",
		"database@best-single":      "dc262d21c5e7094e6c8cb8bd0564f7f9",
		"database-k-high@dual-port": "7a5a3bccf3ba00831c833bb57fc4da6f",
		"compress-x4@dual-port":     "1c56d806be8140cb8d1a0ba62e80c692",
		"arena compress seed 42":    "d404c7dd96efc812915dec95de2a4211",
	}
	r := NewRunner(Spec{Insts: 2_000, Seed: 42, Parallel: 1})
	got := map[string]string{}
	r.SetCellObserver(func(ev CellEvent) { got[ev.Workload+"@"+ev.Machine] = ev.Key }, nil)
	if _, err := runCell(r, config.Baseline(), "compress"); err != nil {
		t.Fatal(err)
	}
	if len(r.arenas.entries) != 1 {
		t.Fatalf("one compress cell built %d arenas, want 1", len(r.arenas.entries))
	}
	for k := range r.arenas.entries {
		got["arena compress seed 42"] = k.ID()
	}
	if _, err := runCell(r, config.BestSingle(), "database"); err != nil {
		t.Fatal(err)
	}
	stream := func(p plan, label string) planStream {
		for _, s := range p.streams {
			if s.workload == label {
				return s
			}
		}
		t.Fatalf("no %s stream", label)
		return planStream{}
	}
	streams := []planStream{stream(f7Plan(r.spec), "database-k-high"), stream(a6Plan(r.spec), "compress-x4")}
	if _, err := r.runPlan(plan{streams: streams, machines: []config.Machine{config.DualPort()}}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("cell IDs = %v\nwant %v", got, want)
	}
}

// TestPlanLabelsNameOneCellKey pins what CellBundle relies on: across every
// plan of the suite, each workload@machine label pair names one cell key,
// so the first planned cell with a pair is the simulation the campaign ran
// under it.
func TestPlanLabelsNameOneCellKey(t *testing.T) {
	for _, tc := range []struct {
		name string
		spec Spec
	}{{"default", DefaultSpec()}, {"quick", QuickSpec()}} {
		name, spec := tc.name, tc.spec
		r := NewRunner(spec)
		keys := map[PlannedCell]cellstore.Key{}
		submissions := 0
		for _, e := range Suite() {
			p := e.plan(spec)
			streams := make([]planStream, len(p.streams))
			for i, s := range p.streams {
				if streams[i] = s.hashed(); streams[i].err != nil {
					t.Fatalf("%s %s: %v", name, e.ID, streams[i].err)
				}
			}
			p.each(func(s, m int) {
				submissions++
				key, err := r.cellKey(&p.machines[m], &streams[s].streamSpec, "")
				if err != nil {
					t.Fatal(err)
				}
				label := PlannedCell{Workload: streams[s].workload, Machine: p.machines[m].Name}
				if prev, ok := keys[label]; ok && prev != key {
					t.Errorf("%s %s: %s@%s names two cell keys", name, e.ID, label.Workload, label.Machine)
				}
				keys[label] = key
			})
		}
		t.Logf("%s: %d submissions, %d labels", name, submissions, len(keys))
	}
}
