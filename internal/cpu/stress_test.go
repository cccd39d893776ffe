package cpu

import (
	"errors"
	"testing"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// TestROBWrapAround runs far more instructions than the ROB holds so the
// ring indices wrap many times; the invariant checks catch reuse bugs.
func TestROBWrapAround(t *testing.T) {
	m := config.Baseline()
	m.Core.ROBEntries = 8
	classes := make([]isa.Class, 5000)
	for i := range classes {
		classes[i] = isa.IntALU
	}
	res := run(t, m, prog(classes, nil))
	if res.Instructions != 5000 {
		t.Errorf("committed %d", res.Instructions)
	}
}

// TestPhysicalRegisterExhaustion gives the renamer a single spare register:
// dispatch must stall-and-recover, never deadlock or double-allocate.
func TestPhysicalRegisterExhaustion(t *testing.T) {
	m := config.Baseline()
	m.Core.IntPhysRegs = 33
	classes := make([]isa.Class, 2000)
	for i := range classes {
		classes[i] = isa.IntALU
	}
	res := run(t, m, prog(classes, nil))
	if res.Instructions != 2000 {
		t.Errorf("committed %d", res.Instructions)
	}
	if res.IPC > 1.01 {
		t.Errorf("IPC %.3f with one spare register; rename stall not modelled", res.IPC)
	}
}

// TestFPDividerSerialises checks the unpipelined divider: independent FP
// divides still issue one per FPDiv latency.
func TestFPDividerSerialises(t *testing.T) {
	n := 200
	insts := make([]isa.Inst, n)
	for i := range insts {
		insts[i] = isa.Inst{
			PC:    uint64(0x1000 + (i%8)*4),
			Class: isa.FPDiv,
			Dest:  isa.FPBase + isa.Reg(1+i%20),
		}
	}
	res := run(t, config.Baseline(), insts)
	want := 1.0 / float64(config.Baseline().Lat.FPDiv)
	if res.IPC > want*1.2 {
		t.Errorf("independent FP divides ran at IPC %.3f; divider pipelined?", res.IPC)
	}
}

// TestIntDivVsMulContention: divides block the shared mul/div unit.
func TestIntDivVsMulContention(t *testing.T) {
	mixed := make([]isa.Inst, 0, 400)
	for i := 0; i < 200; i++ {
		mixed = append(mixed,
			isa.Inst{PC: uint64(0x1000 + (i%4)*8), Class: isa.IntDiv, Dest: isa.Reg(1 + i%8)},
			isa.Inst{PC: uint64(0x1004 + (i%4)*8), Class: isa.IntMul, Dest: isa.Reg(9 + i%8)},
		)
	}
	res := run(t, config.Baseline(), mixed)
	// Each div occupies the unit for IntDiv cycles; muls squeeze between.
	maxIPC := 2.0 / float64(config.Baseline().Lat.IntDiv)
	if res.IPC > maxIPC*1.3 {
		t.Errorf("div+mul stream IPC %.3f exceeds the divider bound %.3f", res.IPC, maxIPC)
	}
}

// TestTinyLoadQueue forces load-queue back-pressure without deadlock.
func TestTinyLoadQueue(t *testing.T) {
	m := config.Baseline()
	m.Core.LoadQueueEntries = 1
	classes := make([]isa.Class, 600)
	addrs := make([]uint64, 600)
	for i := range classes {
		classes[i] = isa.Load
		addrs[i] = uint64(0x8000 + (i%64)*8)
	}
	res := run(t, m, prog(classes, addrs))
	if res.Instructions != 600 {
		t.Errorf("committed %d", res.Instructions)
	}
	if res.IPC > 1.01 {
		t.Errorf("IPC %.3f with a 1-entry load queue", res.IPC)
	}
}

// TestTinyMSHR bounds outstanding misses to one; a miss-heavy stream must
// still complete, strictly slower than with full MSHRs.
func TestTinyMSHR(t *testing.T) {
	classes := make([]isa.Class, 400)
	addrs := make([]uint64, 400)
	for i := range classes {
		classes[i] = isa.Load
		addrs[i] = uint64(0x100000 + i*4096) // every load a distinct page/line
	}
	m := config.Baseline()
	m.L1D.MSHRs = 1
	one := run(t, m, prog(classes, addrs))
	full := run(t, config.Baseline(), prog(classes, addrs))
	if one.Cycles <= full.Cycles {
		t.Errorf("1 MSHR (%d cycles) not slower than 8 MSHRs (%d)", one.Cycles, full.Cycles)
	}
}

// TestDeadlineTrips verifies the deadlock guard path.
func TestDeadlineTrips(t *testing.T) {
	p, _ := workload.ByName("compress")
	g, err := workload.New(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	m := config.Baseline()
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	_, err = c.Run(Options{MaxInstructions: 10_000_000, DeadlineCycles: 100})
	if !errors.Is(err, ErrDeadline) {
		t.Errorf("got %v, want ErrDeadline", err)
	}
}

// TestCommitWidthBoundsIPC: no configuration can exceed the commit width.
func TestCommitWidthBoundsIPC(t *testing.T) {
	m := config.QuadPort()
	m.Core.IntALUs = 8
	m.Core.IssueWidth = 16
	classes := make([]isa.Class, 8000)
	for i := range classes {
		classes[i] = isa.IntALU
	}
	insts := prog(classes, nil)
	for i := range insts {
		insts[i].Src1, insts[i].Src2 = 0, 0
	}
	res := run(t, m, insts)
	if res.IPC > float64(m.Core.CommitWidth) {
		t.Errorf("IPC %.3f exceeds commit width %d", res.IPC, m.Core.CommitWidth)
	}
}

// TestBankedEndToEnd runs a workload on the banked machine through the full
// core and checks it lands between single- and dual-ported performance.
func TestBankedEndToEnd(t *testing.T) {
	ipc := func(m config.Machine) float64 {
		p, _ := workload.ByName("eqntott")
		g, err := workload.New(p, 5)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(&m, g)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Run(Options{MaxInstructions: 40_000, DeadlineCycles: 20_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	single := ipc(config.Baseline())
	banked := ipc(config.Banked(8))
	dual := ipc(config.DualPort())
	if banked < single*0.995 {
		t.Errorf("8 banks (%.3f) below single port (%.3f)", banked, single)
	}
	if banked > dual*1.01 {
		t.Errorf("8 banks (%.3f) above dual port (%.3f)", banked, dual)
	}
}

// TestStreamEndMidPipeline: a stream that ends while instructions are in
// flight still drains cleanly.
func TestStreamEndMidPipeline(t *testing.T) {
	insts := []isa.Inst{
		{PC: 0x1000, Class: isa.Load, Dest: 1, Addr: 0x200000, Size: 8}, // long miss
		{PC: 0x1004, Class: isa.IntALU, Dest: 2, Src1: 1},
		{PC: 0x1008, Class: isa.Store, Src1: 2, Addr: 0x200008, Size: 8},
	}
	res := run(t, config.Baseline(), insts)
	if res.Instructions != 3 {
		t.Errorf("committed %d, want 3", res.Instructions)
	}
	if res.Stores != 1 {
		t.Errorf("stores = %d", res.Stores)
	}
}

// TestTraceRoundTripThroughCore: a generator stream captured into an arena,
// decoded back to instructions and replayed through a plain slice stream
// produces the identical simulation result as the live generator.
func TestTraceRoundTripThroughCore(t *testing.T) {
	const n = 30_000
	p, _ := workload.ByName("verilog")
	g, err := workload.New(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	m := config.Baseline()
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	live, err := c.Run(Options{MaxInstructions: n, DeadlineCycles: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	// Capture the same stream from a fresh generator and replay it.
	g2, err := workload.New(p, 17)
	if err != nil {
		t.Fatal(err)
	}
	a := trace.Materialize(g2, n)
	captured := make([]isa.Inst, a.Len())
	for i := range captured {
		a.Inst(i, &captured[i])
	}
	m2 := config.Baseline()
	c2, err := New(&m2, trace.NewSliceStream(captured))
	if err != nil {
		t.Fatal(err)
	}
	replay, err := c2.Run(Options{DeadlineCycles: 20_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if live.Cycles != replay.Cycles || live.Instructions != replay.Instructions {
		t.Errorf("replay diverged: live %d cycles/%d insts, replay %d/%d",
			live.Cycles, live.Instructions, replay.Cycles, replay.Instructions)
	}
}

// TestKernelEntryDrainsPipeline: every syscall serialises, so a kernel-
// heavy run must show at least one fetch-stall cycle per syscall.
func TestKernelEntryDrainsPipeline(t *testing.T) {
	p, _ := workload.ByName("pmake")
	g, err := workload.New(p, 23)
	if err != nil {
		t.Fatal(err)
	}
	m := config.Baseline()
	c, err := New(&m, g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Run(Options{MaxInstructions: 60_000, DeadlineCycles: 30_000_000})
	if err != nil {
		t.Fatal(err)
	}
	syscalls := res.Counters.Get("class.syscall")
	if syscalls == 0 {
		t.Fatal("pmake run had no kernel entries")
	}
	if res.Counters.Get("stall.fetch_cycles") < syscalls {
		t.Error("fewer fetch-stall cycles than syscalls; serialisation missing")
	}
}

// TestSpeculativeLoadsViolationPath builds a guaranteed memory-order
// violation: a store whose address depends on a slow divide, followed
// immediately by a load to the same address. Conservatively the load waits;
// speculatively it issues early and must be squashed (counted) when the
// store resolves.
func TestSpeculativeLoadsViolationPath(t *testing.T) {
	mk := func() []isa.Inst {
		var insts []isa.Inst
		for i := 0; i < 50; i++ {
			insts = append(insts,
				isa.Inst{PC: 0x1000, Class: isa.IntDiv, Dest: 1, Src1: 1},              // slow address
				isa.Inst{PC: 0x1004, Class: isa.Store, Src1: 1, Addr: 0x8000, Size: 8}, // late-resolving store
				isa.Inst{PC: 0x1008, Class: isa.Load, Dest: 2, Addr: 0x8000, Size: 8},  // same address
				isa.Inst{PC: 0x100c, Class: isa.IntALU, Dest: 3, Src1: 2},
			)
		}
		return insts
	}
	m := config.Baseline()
	m.Core.SpeculativeLoads = true
	m.Core.ViolationPenalty = 8
	spec := run(t, m, mk())
	if got := spec.Counters.Get("lsq.violations"); got == 0 {
		t.Error("no violations detected on a guaranteed-conflict stream")
	}
	cons := run(t, config.Baseline(), mk())
	if cons.Counters.Get("lsq.violations") != 0 {
		t.Error("conservative mode reported violations")
	}
}

// TestSpeculativeLoadsHelpIndependentStreams: with stores whose addresses
// resolve slowly but never conflict with the loads, speculation must win.
func TestSpeculativeLoadsHelpIndependentStreams(t *testing.T) {
	mk := func() []isa.Inst {
		var insts []isa.Inst
		for i := 0; i < 100; i++ {
			insts = append(insts,
				isa.Inst{PC: 0x1000, Class: isa.IntDiv, Dest: 1, Src1: 1},
				isa.Inst{PC: 0x1004, Class: isa.Store, Src1: 1, Addr: uint64(0x8000 + i*8), Size: 8},
				isa.Inst{PC: 0x1008, Class: isa.Load, Dest: 2, Addr: uint64(0x20000 + (i%16)*8), Size: 8},
				isa.Inst{PC: 0x100c, Class: isa.IntALU, Dest: 3, Src1: 2},
			)
		}
		return insts
	}
	m := config.Baseline()
	m.Core.SpeculativeLoads = true
	m.Core.ViolationPenalty = 8
	spec := run(t, m, mk())
	cons := run(t, config.Baseline(), mk())
	if spec.Cycles >= cons.Cycles {
		t.Errorf("speculation (%d cycles) not faster than conservative (%d) on independent streams",
			spec.Cycles, cons.Cycles)
	}
	if spec.Counters.Get("lsq.violations") != 0 {
		t.Errorf("independent streams produced %d violations", spec.Counters.Get("lsq.violations"))
	}
}

// TestWrongPathFetchPollutes: without a BTB, fetch cannot redirect on a
// taken loop branch, so every iteration mispredicts; wrong-path fetching
// must touch lines the correct path never does.
func TestWrongPathFetchPollutes(t *testing.T) {
	mk := func(wrongPath bool) *Result {
		m := config.Baseline()
		m.Pred.BTBEntries = 0
		m.Core.WrongPathFetch = wrongPath
		var insts []isa.Inst
		for i := 0; i < 200; i++ {
			insts = append(insts,
				isa.Inst{PC: 0x1000, Class: isa.IntALU, Dest: 1},
				isa.Inst{PC: 0x1004, Class: isa.Branch, Target: 0x1000, Taken: i != 199},
			)
		}
		return run(t, m, insts)
	}
	with := mk(true)
	without := mk(false)
	if with.Counters.Get("fetch.wrong_path_lines") == 0 {
		t.Fatal("no wrong-path lines fetched")
	}
	if without.Counters.Get("fetch.wrong_path_lines") != 0 {
		t.Fatal("wrong-path lines fetched with the feature off")
	}
	if with.Counters.Get("l1i.misses") <= without.Counters.Get("l1i.misses") {
		t.Errorf("wrong-path fetch produced no extra L1I misses (%d vs %d)",
			with.Counters.Get("l1i.misses"), without.Counters.Get("l1i.misses"))
	}
}
