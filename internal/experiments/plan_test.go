package experiments

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"portsim/internal/config"
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
