package experiments

import (
	"testing"

	"portsim/internal/config"
)

// poolMachines are the campaign's machine kinds the pool must retarget
// between: the port arrangements of F1/F6 and A2, and the three policy
// flags of A4 (speculative loads), A5 (write-through) and A8 (wrong-path
// fetch).
func poolMachines() []config.Machine {
	spec := config.Baseline()
	spec.Name = "mem-speculation"
	spec.Core.SpeculativeLoads = true
	spec.Core.ViolationPenalty = 8
	wt := config.Baseline()
	wt.Name = "write-through"
	wt.L1D.WriteThrough = true
	wp := config.Baseline()
	wp.Name = "wrong-path-fetch"
	wp.Core.WrongPathFetch = true
	return []config.Machine{
		config.Baseline(), config.BestSingle(), config.DualPort(), config.Banked(4), wt, spec, wp,
	}
}

// TestPoolReusesCoresIdentically runs every campaign machine kind on every
// quick workload through one serial runner, whose single pooled core is
// retargeted from cell to cell: it must build exactly one core, and every
// cell must match a pool-free runner's result counter for counter.
func TestPoolReusesCoresIdentically(t *testing.T) {
	spec := QuickSpec()
	spec.Insts = 20_000
	spec.Parallel = 1 // one worker: every cell after the first draws the pooled core
	warm := NewRunner(spec)
	machines := poolMachines()
	cells := 0
	for _, w := range spec.Workloads {
		for _, m := range machines {
			got, err := runCell(warm, m, w)
			if err != nil {
				t.Fatal(err)
			}
			cells++
			// A fresh runner per cell can never reuse a core; its result is
			// the pool-free reference.
			cold := NewRunner(spec)
			want, err := runCell(cold, m, w)
			if err != nil {
				t.Fatal(err)
			}
			if h, _ := cold.PoolStats(); h != 0 {
				t.Fatalf("cold runner somehow hit its pool (%d)", h)
			}
			if got.Cycles != want.Cycles || got.Instructions != want.Instructions ||
				got.Counters.String() != want.Counters.String() {
				t.Fatalf("%s on %s: pooled result differs from pool-free:\npooled:\n%s\npool-free:\n%s",
					w, m.Name, got.Counters, want.Counters)
			}
		}
	}
	if hits, misses := warm.PoolStats(); misses != 1 || hits != uint64(cells-1) {
		t.Fatalf("pool: %d hits, %d misses over %d cells; want one core built and %d reuses",
			hits, misses, cells, cells-1)
	}
}

// TestPoolSkipsFaultArmedCells checks that fault-injected cells never share
// cores with healthy ones: arming mutates the machine configuration, so a
// pooled core would leak the mutation into healthy cells.
func TestPoolSkipsFaultArmedCells(t *testing.T) {
	spec := QuickSpec()
	spec.Parallel = 1
	spec.Fault = &Fault{Mode: FaultPanic, Workload: spec.Workloads[0], After: 1000}
	r := NewRunner(spec)
	m := config.Baseline()
	if _, err := runCell(r, m, spec.Workloads[0]); err == nil {
		t.Fatal("fault-armed cell unexpectedly succeeded")
	}
	if hits, misses := r.PoolStats(); hits != 0 || misses != 0 {
		t.Fatalf("fault-armed cell touched the pool: hits=%d misses=%d", hits, misses)
	}
	// A healthy workload on the same runner still pools normally.
	if _, err := runCell(r, m, spec.Workloads[1]); err != nil {
		t.Fatal(err)
	}
	if _, misses := r.PoolStats(); misses != 1 {
		t.Fatalf("healthy cell should have built (and pooled) one core, misses=%d", misses)
	}
}

// TestFaultArmedCellsIsolatedFromUnarmed is the -inject isolation
// regression: a fault-armed cell shares its base machine configuration with
// unarmed cells, and the only things keeping the poison contained are (a)
// the memo key carrying the workload name, computed before arming mutates
// the config, and (b) the pool refusing armed cells entirely. If either
// gate regressed, the wedge failure below would be served to — or a wedged
// core handed to — the healthy cell.
func TestFaultArmedCellsIsolatedFromUnarmed(t *testing.T) {
	spec := QuickSpec()
	spec.Parallel = 1
	armedW, cleanW := spec.Workloads[0], spec.Workloads[1]
	spec.Fault = &Fault{Mode: FaultWedge, Workload: armedW}
	r := NewRunner(spec)
	var events []CellEvent
	r.SetCellObserver(func(ev CellEvent) { events = append(events, ev) }, nil)
	m := config.Baseline()

	// Healthy cell first: simulates and pools one core.
	cleanRes, err := runCell(r, m, cleanW)
	if err != nil {
		t.Fatal(err)
	}

	// Armed cell on the SAME base config: must fail (stuck drain trips
	// the watchdog) and must not draw the pooled healthy core.
	if _, err := runCell(r, m, armedW); err == nil {
		t.Fatal("wedge-armed cell unexpectedly succeeded")
	}
	if hits, _ := r.PoolStats(); hits != 0 {
		t.Fatalf("armed cell reused a pooled core (hits=%d); wedge mutation would leak", hits)
	}

	// Re-running both cells must memo-join their own prior outcome, never
	// cross: the armed key differs from the clean key by workload name
	// even though the base config JSON is identical.
	if _, err := runCell(r, m, armedW); err == nil {
		t.Fatal("armed rerun lost its memoised failure")
	}
	again, err := runCell(r, m, cleanW)
	if err != nil {
		t.Fatalf("clean rerun poisoned by armed cell: %v", err)
	}
	if again != cleanRes {
		t.Fatal("clean rerun did not memo-join its own result")
	}
	for _, ev := range events[2:] {
		if !ev.MemoHit {
			t.Fatalf("rerun of %s re-simulated instead of memo-joining", ev.Workload)
		}
	}
	for _, ev := range events {
		if ev.Workload == armedW && ev.Err == nil {
			t.Fatalf("armed cell %s reported success", armedW)
		}
		if ev.Workload == cleanW && ev.Err != nil {
			t.Fatalf("clean cell %s reported failure: %v", cleanW, ev.Err)
		}
	}

	// The healthy result must be bit-identical to a fault-free runner's:
	// arming one workload may not perturb any other cell.
	ref := NewRunner(QuickSpec())
	want, err := runCell(ref, m, cleanW)
	if err != nil {
		t.Fatal(err)
	}
	if cleanRes.Cycles != want.Cycles || cleanRes.Instructions != want.Instructions ||
		cleanRes.Counters.String() != want.Counters.String() {
		t.Fatalf("clean cell perturbed by fault arming: got %d cycles / %d insts, want %d / %d",
			cleanRes.Cycles, cleanRes.Instructions, want.Cycles, want.Instructions)
	}
}
