package cpu

import (
	"testing"

	"portsim/internal/config"
	"portsim/internal/cpustack"
	"portsim/internal/stats"
	"portsim/internal/workload"
)

// acctRun simulates one bounded cell with accounting armed and returns the
// result plus the frozen stack.
func acctRun(t *testing.T, m config.Machine, prof string) (*Result, *cpustack.Snapshot) {
	t.Helper()
	g, err := workload.New(mustProfile(t, prof), 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	stack := cpustack.NewStack()
	res, err := c.Run(Options{
		MaxInstructions: 8_000,
		DeadlineCycles:  DeadlineFor(8_000),
		StallCycles:     DefaultStallCycles,
		CPIStack:        stack,
	})
	if err != nil {
		t.Fatalf("%s on %s: %v", prof, m.Name, err)
	}
	if res.CPIStack == nil {
		t.Fatalf("%s on %s: armed run returned nil CPIStack", prof, m.Name)
	}
	if got, want := res.CPIStack.Total(), stack.Total(); got != want {
		t.Fatalf("snapshot total %d != live stack total %d", got, want)
	}
	return res, res.CPIStack
}

// TestCPIStackConservation is the tentpole invariant over every machine
// preset: the attribution buckets partition the run's cycles exactly.
// Every cycle is stepped and classified, so nothing lands in the
// skipped-inert bucket.
func TestCPIStackConservation(t *testing.T) {
	for _, preset := range config.PresetNames() {
		m := config.Presets[preset]()
		t.Run(preset, func(t *testing.T) {
			res, stack := acctRun(t, m, "compress")
			if err := stack.CheckConservation(res.Cycles); err != nil {
				t.Error(err)
			}
			if got := stack.Buckets[cpustack.SkippedInert]; got != 0 {
				t.Errorf("%d cycles charged to skipped-inert; want 0", got)
			}
			if stack.Buckets[cpustack.Useful] == 0 {
				t.Error("no cycles attributed to useful work")
			}
		})
	}
}

// TestCPIStackDoesNotPerturbResults pins the byte-identity contract:
// arming accounting must not change a single counter, and the counter set
// must not grow a CPI entry (the stack rides on Result.CPIStack, outside
// the table-rendering path).
func TestCPIStackDoesNotPerturbResults(t *testing.T) {
	run := func(stack *cpustack.Stack) *Result {
		g, err := workload.New(mustProfile(t, "database"), 42)
		if err != nil {
			t.Fatal(err)
		}
		m := config.BestSingle()
		c, err := New(&m, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(Options{MaxInstructions: 8_000, CPIStack: stack})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain := run(nil)
	armed := run(cpustack.NewStack())
	if plain.CPIStack != nil {
		t.Error("unarmed run carries a CPI stack")
	}
	if plain.Counters.String() != armed.Counters.String() {
		t.Errorf("counters diverge with accounting armed:\n--- off ---\n%s\n--- on ---\n%s",
			plain.Counters, armed.Counters)
	}
	if plain.Cycles != armed.Cycles || plain.IPC != armed.IPC {
		t.Errorf("headline results diverge: off (%d cycles, IPC %v), on (%d cycles, IPC %v)",
			plain.Cycles, plain.IPC, armed.Cycles, armed.IPC)
	}
}

// TestCPIStackAttributionSanity cross-checks the stack against counters
// the model already keeps: a store-buffer-starved machine (2-entry
// buffer, no combining) must show store-buffer-full cycles, and the
// attribution must track the independently counted commit stalls.
func TestCPIStackAttributionSanity(t *testing.T) {
	m := config.Baseline() // 2-entry store buffer: commit stalls guaranteed
	res, stack := acctRun(t, m, "compress")
	if got := stack.Buckets[cpustack.StoreBufferFull]; got == 0 {
		t.Error("baseline run attributed zero cycles to store-buffer-full")
	}
	// The bucket and the counter measure overlapping but distinct things:
	// a cycle that retires an instruction and then hits a refused store
	// bumps the counter but is attributed useful (precedence rule 1),
	// while the end-of-run drain tail lands in the bucket without touching
	// the counter. Useful + store-buffer-full must cover the counter.
	sb := stack.Buckets[cpustack.StoreBufferFull]
	useful := stack.Buckets[cpustack.Useful]
	if ctr := res.Counters.Get(stats.StallCommitStoreBuffer); sb+useful < ctr {
		t.Errorf("store-buffer-full %d + useful %d < commit-stall counter %d", sb, useful, ctr)
	}
	if sb > res.Cycles {
		t.Errorf("store-buffer-full bucket %d exceeds the run's %d cycles", sb, res.Cycles)
	}
}

// TestStepDoesNotAllocateWithCPIStack extends the zero-alloc proof to the
// accounting path: classifying and charging a cycle must not touch the
// heap, with the stack armed exactly as the experiment runner arms it.
func TestStepDoesNotAllocateWithCPIStack(t *testing.T) {
	m := config.BestSingle()
	g, err := workload.New(mustProfile(t, "compress"), 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	c.acct = cpustack.NewStack()
	var snap acctSnap
	acctedStep := func() {
		c.acctBegin(&snap)
		c.step()
		c.acctStep(&snap)
	}
	for i := 0; i < 20_000; i++ {
		acctedStep()
	}
	if avg := testing.AllocsPerRun(2000, acctedStep); avg != 0 {
		t.Errorf("accounted step allocates %v objects/cycle in steady state; want 0", avg)
	}
	if c.acct.Total() == 0 {
		t.Error("armed stack accumulated nothing")
	}
}

// TestCPIStackGapClassifierCoversWedge drives the fault-injected wedge
// (store buffer stuck mid-drain) and checks the commit gap it opens lands
// in the named store-buffer bucket, not in useful work: the watchdog kills
// the run, and the live stack — the caller-owned half of Options.CPIStack —
// still carries the attribution of everything up to the abort.
func TestCPIStackGapClassifierCoversWedge(t *testing.T) {
	m := config.Baseline()
	m.Ports.FaultStuckDrain = true
	g, err := workload.New(mustProfile(t, "compress"), 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	stack := cpustack.NewStack()
	_, err = c.Run(Options{
		MaxInstructions: 8_000,
		DeadlineCycles:  DeadlineFor(8_000),
		StallCycles:     DefaultStallCycles,
		CPIStack:        stack,
	})
	if err == nil {
		t.Fatal("wedged run did not fail")
	}
	snap := stack.Snapshot()
	sb, useful := snap.Buckets[cpustack.StoreBufferFull], snap.Buckets[cpustack.Useful]
	if sb == 0 {
		t.Fatal("wedged run attributed zero cycles to store-buffer-full")
	}
	if sb <= useful {
		t.Errorf("wedge not dominant: store-buffer-full %d <= useful %d", sb, useful)
	}
	// Partial-run conservation: every charge matched a simulated cycle.
	if got := stack.Total(); got != c.cycle {
		t.Errorf("aborted run leaks cycles: buckets %d, clock %d", got, c.cycle)
	}
}
