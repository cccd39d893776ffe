package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"portsim/internal/config"
	"portsim/internal/cpu"
)

// equivSpec is small enough to run the comparison grid three times over.
func equivSpec(parallel int) Spec {
	spec := QuickSpec()
	spec.Insts = 10_000
	spec.Parallel = parallel
	return spec
}

// suiteSnapshot runs a representative slice of the suite — memoised cells
// (T2, F1, F6), profile cells (F7) and stream cells (A6) — and captures both
// the rendered text and the typed rows.
type suiteSnapshot struct {
	text string
	t2   []T2Row
	f1   []F1Row
	f6   []F6Row
	f7   []F7Row
	a6   []A6Row
}

func snapshotSuite(t *testing.T, parallel int) suiteSnapshot {
	t.Helper()
	r := NewRunner(equivSpec(parallel))
	var b strings.Builder
	snap := suiteSnapshot{}
	var err error
	var table interface{ String() string }
	if snap.t2, table, err = T2Characterisation(r); err != nil {
		t.Fatalf("parallel=%d T2: %v", parallel, err)
	}
	b.WriteString(table.String())
	if snap.f1, table, err = F1PortCount(r); err != nil {
		t.Fatalf("parallel=%d F1: %v", parallel, err)
	}
	b.WriteString(table.String())
	if snap.f6, table, err = F6Headline(r); err != nil {
		t.Fatalf("parallel=%d F6: %v", parallel, err)
	}
	b.WriteString(table.String())
	if snap.f7, table, err = F7KernelIntensity(r); err != nil {
		t.Fatalf("parallel=%d F7: %v", parallel, err)
	}
	b.WriteString(table.String())
	if snap.a6, table, err = A6Multiprogramming(r); err != nil {
		t.Fatalf("parallel=%d A6: %v", parallel, err)
	}
	b.WriteString(table.String())
	snap.text = b.String()
	return snap
}

// TestSerialParallelEquivalence is the determinism guarantee: the rendered
// tables and the typed rows must be byte- and bit-identical whether cells
// run one at a time or eight at a time.
func TestSerialParallelEquivalence(t *testing.T) {
	serial := snapshotSuite(t, 1)
	for _, p := range []int{4, 8} {
		par := snapshotSuite(t, p)
		if par.text != serial.text {
			t.Errorf("parallel=%d table text diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				p, serial.text, par.text)
		}
		if !reflect.DeepEqual(par.t2, serial.t2) {
			t.Errorf("parallel=%d T2 rows diverged", p)
		}
		if !reflect.DeepEqual(par.f1, serial.f1) {
			t.Errorf("parallel=%d F1 rows diverged", p)
		}
		if !reflect.DeepEqual(par.f6, serial.f6) {
			t.Errorf("parallel=%d F6 rows diverged", p)
		}
		if !reflect.DeepEqual(par.f7, serial.f7) {
			t.Errorf("parallel=%d F7 rows diverged", p)
		}
		if !reflect.DeepEqual(par.a6, serial.a6) {
			t.Errorf("parallel=%d A6 rows diverged", p)
		}
	}
}

// TestMemoCacheSingleflight hammers the shared memo cache with duplicate
// configurations from many goroutines: every caller must get the same
// result object, and exactly one simulation may actually execute per
// distinct configuration. Run under -race this is the memo-cache race test.
func TestMemoCacheSingleflight(t *testing.T) {
	spec := QuickSpec()
	spec.Insts = 3_000
	spec.Parallel = 8
	r := NewRunner(spec)

	const callers = 32
	baseline := make([]*cpu.Result, callers)
	dual := make([]*cpu.Result, callers)
	var wg sync.WaitGroup
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := runCell(r, config.Baseline(), "compress")
			if err != nil {
				t.Errorf("caller %d baseline: %v", i, err)
				return
			}
			baseline[i] = res
			res, err = runCell(r, config.DualPort(), "compress")
			if err != nil {
				t.Errorf("caller %d dual: %v", i, err)
				return
			}
			dual[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < callers; i++ {
		if baseline[i] != baseline[0] {
			t.Fatalf("caller %d got a different baseline result object; duplicate simulation ran", i)
		}
		if dual[i] != dual[0] {
			t.Fatalf("caller %d got a different dual result object; duplicate simulation ran", i)
		}
	}
	if baseline[0] == dual[0] {
		t.Fatal("distinct machines shared a memo entry")
	}
	// Exactly two simulations executed: the accumulators must hold exactly
	// their combined committed instructions, not 32x.
	want := baseline[0].Instructions + dual[0].Instructions
	if got := r.SimulatedInstructions(); got != want {
		t.Errorf("accumulated %d instructions, want %d (exactly two simulations)", got, want)
	}
}

// TestRunAllPreservesSubmissionOrder checks the merge layer directly with
// synthetic cells.
func TestRunAllPreservesSubmissionOrder(t *testing.T) {
	r := NewRunner(Spec{Workloads: []string{"compress"}, Insts: 1, Seed: 1, Parallel: 8})
	const n = 100
	cells := make([]cell, n)
	for i := 0; i < n; i++ {
		res := &cpu.Result{Instructions: uint64(i)}
		cells[i] = func() (*cpu.Result, error) { return res, nil }
	}
	results, err := r.runAll(cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != n {
		t.Fatalf("%d results for %d cells", len(results), n)
	}
	for i, res := range results {
		if res.Instructions != uint64(i) {
			t.Fatalf("result %d carries payload %d; order not preserved", i, res.Instructions)
		}
	}
}

// TestRunAllRunsToCompletion checks the crash-containment batch contract:
// a failing cell must not abandon the rest of the batch. Every cell runs,
// the failure is surfaced in the aggregated error, and the healthy cells'
// results come back alongside it so callers can render a partial table.
func TestRunAllRunsToCompletion(t *testing.T) {
	r := NewRunner(Spec{Workloads: []string{"compress"}, Insts: 1, Seed: 1, Parallel: 1})
	var ran []int
	cells := []cell{
		func() (*cpu.Result, error) { ran = append(ran, 0); return &cpu.Result{Instructions: 10}, nil },
		func() (*cpu.Result, error) { ran = append(ran, 1); return nil, fmt.Errorf("cell 1 exploded") },
		func() (*cpu.Result, error) { ran = append(ran, 2); return &cpu.Result{Instructions: 30}, nil },
	}
	results, err := r.runAll(cells)
	if err == nil || !strings.Contains(err.Error(), "cell 1 exploded") {
		t.Fatalf("err = %v, want the cell failure", err)
	}
	// With one worker, execution is in order and continues past the failure.
	if !reflect.DeepEqual(ran, []int{0, 1, 2}) {
		t.Errorf("cells run = %v, want all three despite the failure", ran)
	}
	if len(results) != 3 {
		t.Fatalf("%d results for 3 cells", len(results))
	}
	if results[0] == nil || results[0].Instructions != 10 {
		t.Errorf("healthy cell 0 result missing from failed batch: %v", results[0])
	}
	if results[1] != nil {
		t.Errorf("failed cell 1 produced a result: %v", results[1])
	}
	if results[2] == nil || results[2].Instructions != 30 {
		t.Errorf("healthy cell 2 result missing from failed batch: %v", results[2])
	}
}

// TestRunAllContainsCellPanic checks the pool's last line of defence: a
// panic inside a cell closure becomes a CellError instead of killing the
// process, and the other cells still complete.
func TestRunAllContainsCellPanic(t *testing.T) {
	r := NewRunner(Spec{Workloads: []string{"compress"}, Insts: 1, Seed: 1, Parallel: 2})
	cells := []cell{
		func() (*cpu.Result, error) { return &cpu.Result{Instructions: 10}, nil },
		func() (*cpu.Result, error) { panic("synthetic cell panic") },
		func() (*cpu.Result, error) { return &cpu.Result{Instructions: 30}, nil },
	}
	results, err := r.runAll(cells)
	if err == nil || !errors.Is(err, ErrCellPanic) {
		t.Fatalf("err = %v, want ErrCellPanic", err)
	}
	ces := CellErrors(err)
	if len(ces) != 1 {
		t.Fatalf("%d CellErrors, want exactly 1", len(ces))
	}
	if !strings.Contains(ces[0].Error(), "synthetic cell panic") {
		t.Errorf("CellError %q does not name the panic value", ces[0].Error())
	}
	if ces[0].Stack == "" {
		t.Error("contained panic carries no stack trace")
	}
	if results[0] == nil || results[2] == nil {
		t.Errorf("healthy cells lost: results = %v", results)
	}
}

// TestExperimentErrorPropagates drives the error path end to end: an
// unknown workload in the spec must fail the experiment under any
// parallelism, naming the bad workload.
func TestExperimentErrorPropagates(t *testing.T) {
	for _, p := range []int{1, 4} {
		spec := Spec{Workloads: []string{"compress", "doom", "eqntott"}, Insts: 2_000, Seed: 42, Parallel: p}
		_, _, err := T2Characterisation(NewRunner(spec))
		if err == nil || !strings.Contains(err.Error(), "doom") {
			t.Errorf("parallel=%d: err = %v, want unknown-workload failure", p, err)
		}
	}
}

// TestProgressReporting checks the optional progress callback: counts are
// strictly increasing and end at the number of submitted cells.
func TestProgressReporting(t *testing.T) {
	spec := QuickSpec()
	spec.Insts = 3_000
	spec.Parallel = 4
	r := NewRunner(spec)
	var mu sync.Mutex
	var seen []int
	r.SetProgress(func(done int) {
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	})
	if _, _, err := T2Characterisation(r); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != len(spec.Workloads) {
		t.Fatalf("%d progress calls for %d cells", len(seen), len(spec.Workloads))
	}
	for i, done := range seen {
		if done != i+1 {
			t.Errorf("progress call %d reported %d; counts must be serialised and increasing", i, done)
		}
	}
}

// TestSpecParallelDefaults checks the GOMAXPROCS default and explicit
// override.
func TestSpecParallelDefaults(t *testing.T) {
	if p := NewRunner(QuickSpec()).Parallel(); p < 1 {
		t.Errorf("default parallelism %d; want >= 1 (GOMAXPROCS)", p)
	}
	spec := QuickSpec()
	spec.Parallel = 3
	if p := NewRunner(spec).Parallel(); p != 3 {
		t.Errorf("explicit parallelism %d, want 3", p)
	}
}
