package portsim_test

import (
	"strings"
	"testing"

	"portsim"
	"portsim/internal/isa"
	"portsim/internal/trace"
)

func TestPresetsAvailable(t *testing.T) {
	names := portsim.ConfigNames()
	if len(names) != 7 {
		t.Fatalf("expected 7 presets, got %v", names)
	}
	for _, name := range names {
		cfg, ok := portsim.ConfigByName(name)
		if !ok {
			t.Errorf("preset %q missing", name)
		}
		if cfg.Name == "" {
			t.Errorf("preset %q has empty machine name", name)
		}
	}
	if _, ok := portsim.ConfigByName("octo-port"); ok {
		t.Error("unknown preset resolved")
	}
}

func TestWorkloadsAvailable(t *testing.T) {
	if len(portsim.Workloads()) != 7 {
		t.Fatalf("expected 7 workloads, got %v", portsim.Workloads())
	}
	for _, name := range portsim.Workloads() {
		if _, ok := portsim.WorkloadByName(name); !ok {
			t.Errorf("workload %q missing", name)
		}
	}
}

func TestQuickRun(t *testing.T) {
	sim, err := portsim.New(portsim.BaselineConfig(), "compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 20_000 {
		t.Errorf("committed %d, want 20000", res.Instructions)
	}
	if res.IPC <= 0 || res.IPC > 4 {
		t.Errorf("IPC %.3f implausible", res.IPC)
	}
	if res.Counters.Get("port.cycles") == 0 {
		t.Error("port statistics missing")
	}
}

func TestUnknownWorkloadRejected(t *testing.T) {
	if _, err := portsim.New(portsim.BaselineConfig(), "quake", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}

func TestInvalidConfigRejected(t *testing.T) {
	cfg := portsim.BaselineConfig()
	cfg.Ports.Count = 0
	if _, err := portsim.New(cfg, "compress", 1); err == nil {
		t.Error("invalid config accepted")
	}
	for _, kind := range []string{"static", "bimodal"} {
		cfg := portsim.BaselineConfig()
		cfg.Pred.Kind = kind
		if _, err := portsim.New(cfg, "compress", 1); err == nil || !strings.Contains(err.Error(), kind) {
			t.Errorf("predictor kind %q: err = %v, want one naming the kind", kind, err)
		}
	}
}

func TestSimulationIsSingleUse(t *testing.T) {
	sim, err := portsim.New(portsim.BaselineConfig(), "compress", 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(1000); err == nil {
		t.Error("second Run on the same simulation succeeded")
	}
}

func TestCustomProfile(t *testing.T) {
	prof, _ := portsim.WorkloadByName("eqntott")
	prof.Name = "eqntott-no-os"
	prof.Kernel.EveryMean = 0
	sim, err := portsim.NewFromProfile(portsim.DualPortConfig(), prof, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.KernelInsts != 0 {
		t.Errorf("OS-disabled profile committed %d kernel instructions", res.KernelInsts)
	}
}

func TestCustomStream(t *testing.T) {
	insts := make([]portsim.Instruction, 100)
	for i := range insts {
		insts[i] = portsim.Instruction{
			PC:    uint64(0x1000 + (i%8)*4),
			Class: isa.IntALU,
			Dest:  isa.Reg(1 + i%8),
		}
	}
	sim, err := portsim.NewFromStream(portsim.BaselineConfig(), trace.NewSliceStream(insts))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run(0) // run to stream end
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions != 100 {
		t.Errorf("committed %d, want 100", res.Instructions)
	}
}

func TestSeedsChangeResults(t *testing.T) {
	ipc := func(seed int64) float64 {
		sim, err := portsim.New(portsim.BaselineConfig(), "database", seed)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(20_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.IPC
	}
	if ipc(1) == ipc(2) {
		t.Error("different seeds produced identical IPC; generator seeding broken")
	}
	if ipc(3) != ipc(3) {
		t.Error("same seed produced different IPC; determinism broken")
	}
}
