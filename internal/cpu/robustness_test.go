package cpu

import (
	"errors"
	"strings"
	"testing"

	"portsim/internal/config"
	"portsim/internal/diag"
	"portsim/internal/isa"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// TestNewRejectsNilStream pins the constructor hardening: a nil stream is a
// caller bug reported as an error, not a panic 40k cycles later.
func TestNewRejectsNilStream(t *testing.T) {
	m := config.Baseline()
	c, err := New(&m, nil)
	if err == nil || !strings.Contains(err.Error(), "nil instruction stream") {
		t.Fatalf("New(nil stream) = %v, %v; want nil-stream error", c, err)
	}
}

// TestNewRejectsOversizedRegisterFiles pins the renamer's limit: physical
// registers of both files share one int16 index space, so a machine whose
// files add up past it is an error, not a wrapped index.
func TestNewRejectsOversizedRegisterFiles(t *testing.T) {
	m := config.Baseline()
	m.Core.IntPhysRegs, m.Core.FPPhysRegs = 20_000, 20_000
	if _, err := New(&m, trace.NewSliceStream(nil)); err == nil || !strings.Contains(err.Error(), "physical registers") {
		t.Fatalf("New with 40000 physical registers: err = %v, want the renamer's limit", err)
	}
}

// TestRetirePanicsOnOutOfOrderCommit covers the ROB's in-order invariant
// guard: committing a sequence number at or below the last commit must
// abort.
func TestRetirePanicsOnOutOfOrderCommit(t *testing.T) {
	m := config.Baseline()
	c, err := New(&m, trace.NewSliceStream(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		p := recover() //portlint:ignore recoverhygiene test asserts the panic fires
		if p == nil {
			t.Fatal("out-of-order retire did not panic")
		}
		if msg, ok := p.(string); !ok || !strings.Contains(msg, "commit out of order") {
			t.Errorf("panic %v, want the commit-order message", p)
		}
	}()
	// lastCommitSeq starts at 0 and seq 0 is never a legal commit, so a
	// completed head entry with seq 0 is the smallest out-of-order retire.
	c.rob[c.robHead] = robEntry{seq: 0, state: stateDone}
	c.robCount = 1
	c.commit()
}

// wedgedStoreProgram is a store burst against a machine whose store buffer
// never drains: commit must wedge once the buffer fills.
func wedgedStoreProgram() (config.Machine, []isa.Inst) {
	m := config.Baseline()
	m.Ports.FaultStuckDrain = true
	var insts []isa.Inst
	for i := 0; i < 64; i++ {
		insts = append(insts, isa.Inst{
			PC:    uint64(0x1000 + (i%8)*4),
			Class: isa.Store,
			Src1:  isa.Reg(1 + i%20),
			Addr:  uint64(0x2000 + i*64),
			Size:  8,
		})
	}
	return m, insts
}

// TestWatchdogDiagnosesWedgedStoreBuffer drives the forward-progress
// watchdog end to end: a store buffer that never drains trips ErrStall and
// the diagnosis names the store buffer, not a bare timeout.
func TestWatchdogDiagnosesWedgedStoreBuffer(t *testing.T) {
	m, insts := wedgedStoreProgram()
	c, err := New(&m, trace.NewSliceStream(insts))
	if err != nil {
		t.Fatal(err)
	}
	rec := diag.NewRecorder(0)
	_, err = c.Run(Options{StallCycles: 2_000, Recorder: rec})
	if !errors.Is(err, ErrStall) {
		t.Fatalf("err = %v, want ErrStall", err)
	}
	if !strings.Contains(err.Error(), "store buffer full") {
		t.Errorf("diagnosis %q does not name the wedged store buffer", err)
	}
	if !strings.Contains(err.Error(), "no commit since cycle") {
		t.Errorf("diagnosis %q does not report the progress horizon", err)
	}
	// The recorder saw the commit-stall events leading up to the abort.
	var stalls int
	for _, e := range rec.Events() {
		if e.Kind == diag.EventStall {
			stalls++
		}
	}
	if stalls == 0 {
		t.Errorf("flight recorder captured no commit-stall events; total=%d", rec.Total())
	}
}

// TestDeadlineDiagnosesWedgedStoreBuffer checks the deadline guard carries
// the same diagnosis when it fires first.
func TestDeadlineDiagnosesWedgedStoreBuffer(t *testing.T) {
	m, insts := wedgedStoreProgram()
	c, err := New(&m, trace.NewSliceStream(insts))
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(Options{DeadlineCycles: 1_000})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if !strings.Contains(err.Error(), "store buffer full") {
		t.Errorf("deadline diagnosis %q does not name the wedged store buffer", err)
	}
}

// TestWatchdogQuietOnHealthyRun checks the watchdog never fires on a clean
// workload at the default threshold.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	m := config.Baseline()
	insts := prog([]isa.Class{isa.Load, isa.IntALU, isa.Store, isa.IntALU}, []uint64{0x2000, 0x2008})
	c, err := New(&m, trace.NewSliceStream(insts))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Options{StallCycles: DefaultStallCycles, DeadlineCycles: 1_000_000}); err != nil {
		t.Fatalf("healthy run tripped a guard: %v", err)
	}
}

// coldLoadChain builds a serial chain of loads: each load's address operand
// is the previous load's destination, and every address lands on a fresh
// page 8KB further on, so each commit waits out a DTLB walk plus a full
// memory-hierarchy miss (~60+ cycles) with nothing else to do.
func coldLoadChain(n int) []isa.Inst {
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC:    uint64(0x1000 + (i%8)*4),
			Class: isa.Load,
			Dest:  1,
			Src1:  1,
			Addr:  0x4000_0000 + uint64(i)*0x2000,
			Size:  8,
		}
	}
	return insts
}

// TestWatchdogCountsSteppedEvents pins what Options.StallCycles counts:
// cycles without a commit. A serial cold-load chain opens >50-cycle commit
// gaps, so a 40-cycle budget trips ErrStall mid-gap. A budget of exactly
// the longest commit-free stretch (measured from the recorder's commit
// stamps) completes and one cycle less trips, and the default budget
// leaves the run's timing identical to an unguarded one.
func TestWatchdogCountsSteppedEvents(t *testing.T) {
	m := config.Baseline()
	insts := coldLoadChain(30)
	run := func(stallCycles uint64, rec *diag.Recorder) (*Result, error) {
		t.Helper()
		c, err := New(&m, trace.NewSliceStream(insts))
		if err != nil {
			t.Fatal(err)
		}
		return c.Run(Options{StallCycles: stallCycles, DeadlineCycles: 1_000_000, Recorder: rec})
	}
	if _, err := run(40, nil); !errors.Is(err, ErrStall) {
		t.Errorf("40-cycle budget: err = %v, want ErrStall (each cold load stalls commit for >40 cycles)", err)
	}

	rec := diag.NewRecorder(0)
	unguarded, err := run(0, rec)
	if err != nil {
		t.Fatal(err)
	}
	// Cycles 0..first-1 carry no commit; between commits on cycles a < b,
	// the b-a-1 cycles in between carry none. Each load waits on the one
	// before it, so no two commits share a cycle.
	var longest, next uint64
	for _, e := range rec.Events() {
		if e.Kind != diag.EventCommit {
			continue
		}
		if e.Cycle-next > longest {
			longest = e.Cycle - next
		}
		next = e.Cycle + 1
	}
	if longest <= 40 {
		t.Fatalf("longest commit-free stretch is %d cycles; the chain should open >40-cycle gaps", longest)
	}
	if _, err := run(longest, nil); err != nil {
		t.Errorf("budget of %d cycles (the longest commit-free stretch): err = %v, want success", longest, err)
	}
	if _, err := run(longest-1, nil); !errors.Is(err, ErrStall) {
		t.Errorf("budget of %d cycles (one under the longest stretch): err = %v, want ErrStall", longest-1, err)
	}

	guarded, err := run(DefaultStallCycles, nil)
	if err != nil {
		t.Fatalf("default budget: %v", err)
	}
	if guarded.Instructions != uint64(len(insts)) {
		t.Errorf("default budget committed %d insts, want %d", guarded.Instructions, len(insts))
	}
	if guarded.Cycles != unguarded.Cycles {
		t.Errorf("watchdog perturbed a healthy run: %d cycles guarded, %d unguarded", guarded.Cycles, unguarded.Cycles)
	}
}

// TestDeadlineIdenticalUnderSkip pins where the deadline guard fires: the
// loop checks the clock before every cycle, so a run over its budget stops
// at exactly DeadlineCycles+1.
func TestDeadlineIdenticalUnderSkip(t *testing.T) {
	const deadline = 5_000
	m := config.Baseline()
	g, err := workload.New(mustProfile(t, "compress"), 42)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Options{DeadlineCycles: deadline}); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if got := c.cycle; got != deadline+1 {
		t.Errorf("deadline fired at cycle %d, want %d", got, deadline+1)
	}
}

// TestStallDiagnosisOnDrainedCore checks the healthy-core rendering.
func TestStallDiagnosisOnDrainedCore(t *testing.T) {
	m := config.Baseline()
	c, err := New(&m, trace.NewSliceStream(nil))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Run(Options{}); err != nil {
		t.Fatal(err)
	}
	if d := c.StallDiagnosis(); !strings.Contains(d, "instruction stream ended") {
		t.Errorf("drained-core diagnosis = %q", d)
	}
}

// TestFlightRecorderCapturesPipelineEvents runs a short program with the
// recorder armed and checks the event mix covers fetch through commit.
func TestFlightRecorderCapturesPipelineEvents(t *testing.T) {
	m := config.Baseline()
	insts := prog([]isa.Class{isa.Load, isa.IntALU, isa.Store, isa.IntALU}, []uint64{0x2000, 0x2008})
	c, err := New(&m, trace.NewSliceStream(insts))
	if err != nil {
		t.Fatal(err)
	}
	rec := diag.NewRecorder(0)
	if _, err := c.Run(Options{Recorder: rec}); err != nil {
		t.Fatal(err)
	}
	kinds := map[diag.EventKind]int{}
	for _, e := range rec.Events() {
		kinds[e.Kind]++
	}
	for _, want := range []diag.EventKind{diag.EventFetch, diag.EventIssue, diag.EventCommit} {
		if kinds[want] == 0 {
			t.Errorf("no %s events recorded; kinds = %v", want, kinds)
		}
	}
	if kinds[diag.EventCommit] != len(insts) {
		t.Errorf("%d commit events for %d instructions", kinds[diag.EventCommit], len(insts))
	}
}

// TestRunWithoutRecorderMatchesRecordedRun is the zero-overhead-when-disabled
// guarantee in its observable form: the recorder must not perturb the
// simulation. A short program and two workloads on the machine the paper
// proposes must report every counter identically with and without one.
func TestRunWithoutRecorderMatchesRecordedRun(t *testing.T) {
	const insts = 15_000
	program := prog([]isa.Class{isa.Load, isa.Store, isa.IntALU, isa.Load}, []uint64{0x2000, 0x2008, 0x2010})
	compare := func(what string, m config.Machine, stream func() trace.Stream, opts Options) {
		t.Helper()
		runWith := func(rec *diag.Recorder) *Result {
			t.Helper()
			c, err := New(&m, stream())
			if err != nil {
				t.Fatal(err)
			}
			opts.Recorder = rec
			res, err := c.Run(opts)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		plain, recorded := runWith(nil), runWith(diag.NewRecorder(0))
		if a, b := plain.Counters.String(), recorded.Counters.String(); a != b {
			t.Errorf("%s: recorder perturbed the counters:\n--- off ---\n%s\n--- on ---\n%s", what, a, b)
		}
	}
	compare("program", config.Baseline(), func() trace.Stream { return trace.NewSliceStream(program) }, Options{})
	for _, wl := range []string{"compress", "database"} {
		stream := func() trace.Stream {
			g, err := workload.New(mustProfile(t, wl), 42)
			if err != nil {
				t.Fatal(err)
			}
			return g
		}
		compare(wl, config.BestSingle(), stream, Options{
			MaxInstructions: insts,
			DeadlineCycles:  DeadlineFor(insts),
			StallCycles:     DefaultStallCycles,
		})
	}
}
