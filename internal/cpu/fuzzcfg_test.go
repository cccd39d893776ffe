package cpu

import (
	"math/rand"
	"testing"

	"portsim/internal/config"
	"portsim/internal/workload"
)

// randomMachine draws a valid machine configuration exercising every
// feature dimension: port count/width/banks, buffer depths, combining,
// line buffers, fill width, prefetching, write policy, TLB sizes, memory
// speculation, predictor and BTB sizes, and structure sizes.
func randomMachine(rng *rand.Rand) config.Machine {
	m := config.Baseline()
	pick := func(xs ...int) int { return xs[rng.Intn(len(xs))] }

	if rng.Intn(2) == 0 {
		m.Ports.Count = pick(1, 2, 4)
	} else {
		m.Ports.Count = 1
		m.Ports.Banks = pick(2, 4, 8)
	}
	m.Ports.WidthBytes = pick(8, 16, 32)
	m.Ports.StoreBufferEntries = pick(1, 2, 4, 8, 16)
	m.Ports.StoreCombining = rng.Intn(2) == 0 && m.Ports.WidthBytes > 8
	if m.Ports.WidthBytes > 8 && rng.Intn(2) == 0 {
		m.Ports.LineBuffers = pick(1, 2, 4, 8)
	}
	m.Ports.FillBytesPerCycle = pick(8, 16, 32)
	if rng.Intn(3) == 0 {
		m.Ports.PrefetchNextLine = true
		m.Ports.PrefetchDegree = pick(1, 2, 4)
	}
	m.Ports.StoresFirst = rng.Intn(4) == 0

	m.L1D.WriteThrough = rng.Intn(4) == 0
	m.L1D.MSHRs = pick(0, 1, 4, 8)
	m.L1D.Assoc = pick(1, 2, 4)
	m.L1I.Assoc = pick(1, 2)

	m.Core.ROBEntries = pick(8, 16, 32, 64, 128)
	m.Core.LoadQueueEntries = pick(1, 4, 16)
	m.Core.StoreQueueEntries = pick(1, 4, 16)
	m.Core.IntIQEntries = pick(4, 16, 32)
	m.Core.FPIQEntries = pick(4, 16, 32)
	m.Core.IntPhysRegs = pick(33, 48, 96)
	m.Core.FPPhysRegs = pick(33, 48, 96)
	m.Core.MemIssuePerCycle = pick(1, 2, 4)
	if rng.Intn(3) == 0 {
		m.Core.SpeculativeLoads = true
		m.Core.ViolationPenalty = pick(4, 8, 16)
	}

	m.Pred.TableEntries = pick(256, 4096)
	if rng.Intn(4) == 0 {
		m.Pred.BTBEntries = 0
	}
	if rng.Intn(4) == 0 {
		m.Pred.RASEntries = 0
	}
	if rng.Intn(4) == 0 {
		m.ITLB = config.TLB{}
		m.DTLB = config.TLB{}
	} else {
		m.DTLB.Entries = pick(4, 16, 64)
	}
	return m
}

// TestRandomConfigurationsComplete is the feature-interaction fuzz: every
// random-but-valid machine must run every workload snippet to completion
// within a sane cycle bound, drain cleanly, and satisfy the renamer
// conservation invariants. A hang, panic, or leak in ANY feature
// combination fails here.
func TestRandomConfigurationsComplete(t *testing.T) {
	iterations := 60
	if testing.Short() {
		iterations = 10
	}
	rng := rand.New(rand.NewSource(99))
	names := workload.Names()
	for i := 0; i < iterations; i++ {
		m := randomMachine(rng)
		if err := m.Validate(); err != nil {
			t.Fatalf("iteration %d: generator produced invalid config: %v\n%+v", i, err, m.Ports)
		}
		wname := names[rng.Intn(len(names))]
		p, _ := workload.ByName(wname)
		g, err := workload.New(p, int64(i))
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(&m, g)
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		res, err := c.Run(Options{MaxInstructions: 8_000, DeadlineCycles: 4_000_000})
		if err != nil {
			cfg, _ := m.ToJSON()
			t.Fatalf("iteration %d (%s): %v\nconfig: %s", i, wname, err, cfg)
		}
		if res.Instructions != 8_000 {
			t.Fatalf("iteration %d (%s): committed %d of 8000", i, wname, res.Instructions)
		}
		if res.IPC <= 0 || res.IPC > float64(m.Core.CommitWidth) {
			t.Fatalf("iteration %d (%s): IPC %.3f out of range", i, wname, res.IPC)
		}
		checkInvariants(t, c)
	}
}

// TestRandomConfigurationsDeterministic re-runs a random configuration and
// demands identical cycle counts — determinism must hold across the whole
// feature space, not just the presets.
func TestRandomConfigurationsDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	for i := 0; i < 8; i++ {
		m := randomMachine(rng)
		wname := workload.Names()[rng.Intn(len(workload.Names()))]
		cycles := func() uint64 {
			p, _ := workload.ByName(wname)
			g, err := workload.New(p, 77)
			if err != nil {
				t.Fatal(err)
			}
			c, err := New(&m, g)
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Run(Options{MaxInstructions: 10_000, DeadlineCycles: 5_000_000})
			if err != nil {
				t.Fatal(err)
			}
			return res.Cycles
		}
		if a, b := cycles(), cycles(); a != b {
			t.Fatalf("iteration %d (%s): nondeterministic (%d vs %d cycles)", i, wname, a, b)
		}
	}
}
