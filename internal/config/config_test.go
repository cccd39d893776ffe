package config

import (
	"strings"
	"testing"
)

func TestPresetsValidate(t *testing.T) {
	for _, name := range PresetNames() {
		ctor, ok := Presets[name]
		if !ok {
			t.Fatalf("preset %q listed but not registered", name)
		}
		m := ctor()
		if err := m.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", name, err)
		}
		if m.Name == "" {
			t.Errorf("preset %q has empty machine name", name)
		}
	}
}

func TestPresetPortArrangements(t *testing.T) {
	if got := Baseline().Ports.Count; got != 1 {
		t.Errorf("baseline port count = %d, want 1", got)
	}
	if got := DualPort().Ports.Count; got != 2 {
		t.Errorf("dual-port port count = %d, want 2", got)
	}
	if got := QuadPort().Ports.Count; got != 4 {
		t.Errorf("quad-port port count = %d, want 4", got)
	}
	bs := BestSingle()
	if bs.Ports.Count != 1 || bs.Ports.WidthBytes <= 8 || !bs.Ports.StoreCombining || bs.Ports.LineBuffers == 0 {
		t.Errorf("best-single must be 1 wide combining port with line buffers, got %+v", bs.Ports)
	}
}

func TestPresetsShareSubstrate(t *testing.T) {
	// Everything except Name and Ports must be identical across presets so
	// that port experiments isolate the port variables (count, width,
	// buffering, banking).
	base := Baseline()
	for _, name := range PresetNames() {
		m := Presets[name]()
		m.Name = base.Name
		m.Ports = base.Ports
		if m != base {
			t.Errorf("preset %q differs from baseline outside Ports", name)
		}
	}
}

func TestCacheGeomSets(t *testing.T) {
	g := CacheGeom{SizeBytes: 32 << 10, Assoc: 2, LineBytes: 32}
	if got := g.Sets(); got != 512 {
		t.Errorf("Sets() = %d, want 512", got)
	}
}

func mutate(t *testing.T, f func(*Machine)) error {
	t.Helper()
	m := Baseline()
	f(&m)
	return m.Validate()
}

func TestValidateRejects(t *testing.T) {
	cases := []struct {
		name string
		f    func(*Machine)
		frag string
	}{
		{"zero fetch width", func(m *Machine) { m.Core.FetchWidth = 0 }, "fetch width"},
		{"zero commit width", func(m *Machine) { m.Core.CommitWidth = 0 }, "commit width"},
		{"zero rob", func(m *Machine) { m.Core.ROBEntries = 0 }, "ROB"},
		{"too few int phys regs", func(m *Machine) { m.Core.IntPhysRegs = 32 }, "physical registers"},
		{"too few fp phys regs", func(m *Machine) { m.Core.FPPhysRegs = 10 }, "physical registers"},
		{"negative mispredict", func(m *Machine) { m.Core.MispredictPenalty = -1 }, "mispredict"},
		{"zero latency", func(m *Machine) { m.Lat.FPDiv = 0 }, "latency"},
		{"bad predictor", func(m *Machine) { m.Pred.Kind = "oracle" }, "predictor kind"},
		{"static predictor", func(m *Machine) { m.Pred.Kind = "static" }, `"static"`},
		{"bimodal predictor", func(m *Machine) { m.Pred.Kind = "bimodal" }, `"bimodal"`},
		{"non-pow2 PHT", func(m *Machine) { m.Pred.TableEntries = 1000 }, "table entries"},
		{"history bits", func(m *Machine) { m.Pred.HistoryBits = 0 }, "history bits"},
		{"bad BTB", func(m *Machine) { m.Pred.BTBEntries = 100; m.Pred.BTBAssoc = 3 }, "BTB"},
		{"negative RAS", func(m *Machine) { m.Pred.RASEntries = -1 }, "RAS"},
		{"bad l1d line", func(m *Machine) { m.L1D.LineBytes = 24 }, "power of two"},
		{"zero l1i size", func(m *Machine) { m.L1I.SizeBytes = 0 }, "positive"},
		{"l1d latency", func(m *Machine) { m.L1D.HitLatency = 0 }, "hit latency"},
		{"l1d mshrs", func(m *Machine) { m.L1D.MSHRs = -2 }, "MSHR"},
		{"l2 line smaller than l1d", func(m *Machine) { m.Mem.L2.LineBytes = 16 }, "multiple"},
		{"dram latency", func(m *Machine) { m.Mem.DRAMLatency = 0 }, "DRAM"},
		{"zero ports", func(m *Machine) { m.Ports.Count = 0 }, "port"},
		{"narrow port", func(m *Machine) { m.Ports.WidthBytes = 4 }, "width"},
		{"non-pow2 port", func(m *Machine) { m.Ports.WidthBytes = 24 }, "width"},
		{"port wider than line", func(m *Machine) { m.Ports.WidthBytes = 64 }, "exceeds"},
		{"zero store buffer", func(m *Machine) { m.Ports.StoreBufferEntries = 0 }, "store buffer"},
		{"negative line buffers", func(m *Machine) { m.Ports.LineBuffers = -1 }, "line buffer"},
		{"line buffers without invalidation", func(m *Machine) {
			m.Ports.LineBuffers = 4
			m.Ports.StoresCheckLineBuffers = false
		}, "stale"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			err := mutate(t, tt.f)
			if err == nil {
				t.Fatalf("invalid config accepted")
			}
			if !strings.Contains(err.Error(), tt.frag) {
				t.Errorf("error %q does not mention %q", err, tt.frag)
			}
		})
	}
}

func TestValidateAcceptsVariants(t *testing.T) {
	variants := []func(*Machine){
		func(m *Machine) { m.Pred.BTBEntries = 0 },
		func(m *Machine) { m.Ports.WidthBytes = 16 },
		func(m *Machine) { m.Ports.Count = 8 },
		func(m *Machine) { m.L1D.MSHRs = 0 },
		func(m *Machine) { m.Mem.DRAMInterval = 0 },
	}
	for i, f := range variants {
		if err := mutate(t, f); err != nil {
			t.Errorf("variant %d rejected: %v", i, err)
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	want := BestSingle()
	data, err := want.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := FromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}
}

func TestFromJSONRejects(t *testing.T) {
	if _, err := FromJSON([]byte("{not json")); err == nil {
		t.Error("malformed JSON accepted")
	}
	m := Baseline()
	m.Ports.Count = 0
	data, err := m.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := FromJSON(data); err == nil {
		t.Error("invalid machine accepted through FromJSON")
	}
	m = Baseline()
	m.Pred.Kind = "static"
	if data, err = m.ToJSON(); err != nil {
		t.Fatal(err)
	}
	if _, err := FromJSON(data); err == nil || !strings.Contains(err.Error(), `"static"`) {
		t.Errorf("removed predictor kind through FromJSON: err = %v, want one naming \"static\"", err)
	}
}
