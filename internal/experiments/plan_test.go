package experiments

import (
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"portsim/internal/config"
	"portsim/internal/workload"
)

// TestPlannedCellsMatchSubmissions runs every Suite entry on a fresh
// serial runner and checks that its plan names exactly the cells it
// submits: one CellEvent per planned cell, memo hits included, with the
// planned labels in the planned order. The counts do not depend on the
// instruction budget, so a tiny one keeps the full seven-workload campaign
// cheap; its total is the 409 cells the benchmark gate counts.
func TestPlannedCellsMatchSubmissions(t *testing.T) {
	for _, c := range []struct {
		name  string
		spec  Spec
		total int
	}{
		{"quick", QuickSpec(), 189},
		{"default", DefaultSpec(), 409},
	} {
		c.spec.Insts, c.spec.Parallel = 1_000, 1
		total := 0
		for _, e := range Suite() {
			planned := e.Cells(c.spec)
			var got []PlannedCell
			r := NewRunner(c.spec)
			r.SetCellObserver(func(ev CellEvent) {
				got = append(got, PlannedCell{Workload: ev.Workload, Machine: ev.Machine})
			}, nil)
			if _, err := e.Run(r); err != nil {
				t.Fatalf("%s %s: %v", c.name, e.ID, err)
			}
			if !reflect.DeepEqual(got, planned) {
				t.Errorf("%s %s: submitted %d cells, planned %d:\nsubmitted %v\nplanned   %v",
					c.name, e.ID, len(got), len(planned), got, planned)
			}
			total += len(planned)
		}
		if total != c.total {
			t.Errorf("%s: the plans hold %d cells, want %d", c.name, total, c.total)
		}
	}
}

// TestZeroInstsFails checks that a spec without an instruction budget
// fails its cells up front, naming Spec.Insts. The generators never end
// and a zero budget turns the cycle deadline off, so such a cell would
// otherwise simulate forever; the timeout turns that hang into a failure.
func TestZeroInstsFails(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := runCell(NewRunner(Spec{Workloads: []string{"compress"}}), config.Baseline(), "compress")
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "Spec.Insts") {
			t.Errorf("err = %v, want a failure naming Spec.Insts", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a zero-budget cell was still simulating after 10s")
	}
}

// TestMemoisedPlanAllocations pins the pool's cells-as-data contract:
// re-running a plan whose cells the memo already holds allocates the same
// at 2 cells as at 9, nothing per cell beyond the plan's result grid. A
// closure, a cell copy or a machine copy per cell would show as a
// difference of at least 7.
func TestMemoisedPlanAllocations(t *testing.T) {
	spec := QuickSpec()
	spec.Insts = 2_000
	spec.Parallel = 2
	r := NewRunner(spec)
	small := plan{streams: []planStream{named("compress")}, machines: []config.Machine{config.Baseline(), config.DualPort()}}
	large := onWorkloads(spec, headlineMachines()...)
	for _, p := range []plan{small, large} {
		if _, err := r.runPlan(p); err != nil {
			t.Fatal(err)
		}
	}
	allocs := func(p plan) float64 {
		return testing.AllocsPerRun(20, func() {
			if _, err := r.runPlan(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	a, b := allocs(small), allocs(large)
	t.Logf("re-running a memoised plan allocates %v objects at 2 cells and %v at 9", a, b)
	if a != b {
		t.Errorf("re-running a memoised plan allocates %v objects at 2 cells and %v at 9; want the same", a, b)
	}
}

// TestFreshPlanAllocations pins what a simulated cell costs the runner's
// bookkeeping: its memo entry and its result, one cpu.NewResult block, so
// 2 objects, whatever else the plan allocates once. On a warm runner,
// whose pool holds a core with its cursor and whose machines are hashed,
// a plan of one stream no cell has run on 17 machines may allocate at most
// 2 per cell more than the same plan on one machine, with room for the
// memo map to grow once. A cell that takes a cursor, a counter set or a
// copy of its own puts 16 more objects past the bound per object.
func TestFreshPlanAllocations(t *testing.T) {
	const perCell, growth = 2, 6
	spec := QuickSpec()
	spec.Insts = 2_000
	spec.Parallel = 1
	r := NewRunner(spec)
	depths := make([]int, 17)
	for i := range depths {
		depths[i] = i + 1
	}
	machines := variants(depths, "sb-%d", func(m *config.Machine, v int) { m.Ports.StoreBufferEntries = v })
	if _, err := r.runPlan(plan{streams: []planStream{named("compress")}, machines: machines}); err != nil {
		t.Fatal(err)
	}
	// fresh runs a plan of a compress variant no cell has run, so every
	// cell simulates, on the first n machines.
	fresh := func(variant, n int) uint64 {
		ps := named("compress")
		ps.prof.CodeBlocks += variant
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := r.runPlan(plan{streams: []planStream{ps}, machines: machines[:n]}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	n := uint64(len(machines))
	one, all := fresh(1, 1), fresh(2, len(machines))
	t.Logf("a fresh plan allocates %d objects on one machine and %d on %d", one, all, n)
	if all > one+perCell*(n-1)+growth {
		t.Errorf("a fresh plan allocates %d objects on one machine and %d on %d: %.1f per extra cell, want at most %d",
			one, all, n, float64(all-one)/float64(n-1), perCell)
	}
}

// TestPlansLeaveProfilesUnchanged runs the quick suite and then requires
// the built-in profiles that plan rows share to equal a fresh
// workload.Profiles(): no plan, derived rows (F7's database-k-*, A6's
// compress-xN) included, writes through a shared region slice. It also
// checks that the rows do share those slices, which is what makes the
// first check matter.
func TestPlansLeaveProfilesUnchanged(t *testing.T) {
	spec := QuickSpec()
	spec.Insts = 2_000
	r := NewRunner(spec)
	for _, e := range Suite() {
		if _, err := e.Run(r); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
	}
	if !reflect.DeepEqual(builtinProfiles, workload.Profiles()) {
		t.Error("running the quick suite changed the built-in profiles the plans share")
	}
	for _, tc := range []struct {
		p    plan
		base string
	}{{f7Plan(spec), "database"}, {a6Plan(spec), "compress"}} {
		base := builtinProfiles[slices.IndexFunc(builtinProfiles, func(p workload.Profile) bool { return p.Name == tc.base })]
		for _, s := range tc.p.streams {
			if &s.prof.Regions[0] != &base.Regions[0] {
				t.Errorf("%s: the row has its own copy of %s's region table", s.workload, tc.base)
			}
		}
	}
}
