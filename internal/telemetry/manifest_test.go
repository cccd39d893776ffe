package telemetry

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func sampleCampaign() *Campaign {
	c := NewCampaign(4, false, nil)
	c.CellDone(CellSample{
		Machine: "baseline-1port", Workload: "compress", ConfigJSON: []byte(`{"ports":1}`),
		Key:         "k-compress-1",
		WallSeconds: 0.5, Cycles: 10_000, Insts: 8_000,
		PortUtilization: 0.4, PortRejectRate: 0.2,
	})
	c.CellDone(CellSample{
		Machine: "baseline-1port", Workload: "compress", ConfigJSON: []byte(`{"ports":1}`),
		Key: "k-compress-1", MemoHit: true, Cycles: 10_000, Insts: 8_000,
		PortUtilization: 0.4, PortRejectRate: 0.2,
	})
	c.CellDone(CellSample{
		Machine: "2-port", Workload: "eqntott", ConfigJSON: []byte(`{"ports":2}`),
		Key:         "k-eqntott-2",
		WallSeconds: 0.25, Cycles: 5_000, Insts: 4_500,
		PortUtilization: 0.3, PortRejectRate: 0.05,
	})
	c.CellDone(CellSample{
		Machine: "2-port", Workload: "compress", ConfigJSON: []byte(`{"ports":2}`),
		Key: "k-compress-2", Failed: true, Error: "experiments: deadline exceeded",
		PortUtilization: -1, PortRejectRate: -1,
	})
	return c
}

func sampleInfo() ManifestInfo {
	return ManifestInfo{
		CreatedAt:   time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Command:     []string{"portbench", "-quick"},
		Seed:        42,
		Insts:       40_000,
		Workloads:   []string{"compress", "eqntott"},
		Parallel:    4,
		Experiments: []string{"T2", "F1"},
		WallSeconds: 1.5,
	}
}

func TestBuildManifestValidatesAndSorts(t *testing.T) {
	m := sampleCampaign().BuildManifest(sampleInfo())
	if err := m.Validate(); err != nil {
		t.Fatalf("built manifest invalid: %v", err)
	}
	if m.Totals.Cells != 4 || m.Totals.Failed != 1 || m.Totals.MemoHits != 1 {
		t.Errorf("totals = %+v", m.Totals)
	}
	if m.Totals.SimCycles != 15_000 || m.Totals.SimInsts != 12_500 {
		t.Errorf("sim totals = %d/%d, want 15000/12500", m.Totals.SimCycles, m.Totals.SimInsts)
	}
	// Sorted by workload, then machine; the memoised duplicate follows its
	// simulated twin.
	wantOrder := []string{
		"compress/2-port", "compress/baseline-1port", "compress/baseline-1port", "eqntott/2-port",
	}
	for i, cell := range m.Cells {
		if got := cell.Workload + "/" + cell.Machine; got != wantOrder[i] {
			t.Errorf("cell %d = %s, want %s", i, got, wantOrder[i])
		}
	}
	if m.Cells[1].MemoHit || !m.Cells[2].MemoHit {
		t.Error("simulated cell does not precede its memoised duplicate")
	}
	if m.ConfigHash == "" || m.Cells[0].ConfigHash == "" {
		t.Error("missing config hashes")
	}
}

// TestManifestOrderInsensitive pins determinism: the same cells arriving
// in a different completion order must produce an identical manifest.
func TestManifestOrderInsensitive(t *testing.T) {
	a := sampleCampaign().BuildManifest(sampleInfo())

	c := NewCampaign(4, false, nil)
	c.CellDone(CellSample{
		Machine: "2-port", Workload: "compress", ConfigJSON: []byte(`{"ports":2}`),
		Key: "k-compress-2", Failed: true, Error: "experiments: deadline exceeded",
		PortUtilization: -1, PortRejectRate: -1,
	})
	c.CellDone(CellSample{
		Machine: "2-port", Workload: "eqntott", ConfigJSON: []byte(`{"ports":2}`),
		Key:         "k-eqntott-2",
		WallSeconds: 0.25, Cycles: 5_000, Insts: 4_500,
		PortUtilization: 0.3, PortRejectRate: 0.05,
	})
	c.CellDone(CellSample{
		Machine: "baseline-1port", Workload: "compress", ConfigJSON: []byte(`{"ports":1}`),
		Key: "k-compress-1", MemoHit: true, Cycles: 10_000, Insts: 8_000,
		PortUtilization: 0.4, PortRejectRate: 0.2,
	})
	c.CellDone(CellSample{
		Machine: "baseline-1port", Workload: "compress", ConfigJSON: []byte(`{"ports":1}`),
		Key:         "k-compress-1",
		WallSeconds: 0.5, Cycles: 10_000, Insts: 8_000,
		PortUtilization: 0.4, PortRejectRate: 0.2,
	})
	b := c.BuildManifest(sampleInfo())

	// Wall-second fields differ only via info (identical here); everything
	// else must match cell for cell.
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		if !reflect.DeepEqual(a.Cells[i], b.Cells[i]) {
			t.Errorf("cell %d differs:\n%+v\n%+v", i, a.Cells[i], b.Cells[i])
		}
	}
	if a.ConfigHash != b.ConfigHash {
		t.Errorf("config hashes differ: %s vs %s", a.ConfigHash, b.ConfigHash)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleCampaign().BuildManifest(sampleInfo())
	path := filepath.Join(t.TempDir(), "MANIFEST.json")
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != ManifestSchema || got.Totals != m.Totals || len(got.Cells) != len(m.Cells) {
		t.Errorf("round trip drifted: %+v", got)
	}
}

func TestManifestValidateRejectsCorruption(t *testing.T) {
	fresh := func() *Manifest { return sampleCampaign().BuildManifest(sampleInfo()) }
	cases := []struct {
		name    string
		corrupt func(*Manifest)
		wantErr string
	}{
		{"schema", func(m *Manifest) { m.Schema = "portsim-manifest/v0" }, "schema"},
		{"timestamp", func(m *Manifest) { m.CreatedAt = "yesterday" }, "RFC 3339"},
		{"no workloads", func(m *Manifest) { m.Workloads = nil }, "no workloads"},
		{"zero insts", func(m *Manifest) { m.Insts = 0 }, "instruction budget"},
		{"parallel", func(m *Manifest) { m.Parallel = 0 }, "parallel"},
		{"cell names", func(m *Manifest) { m.Cells[0].Workload = "" }, "missing workload"},
		{"config hash", func(m *Manifest) { m.Cells[0].ConfigHash = "" }, "config_hash"},
		{"outcome", func(m *Manifest) { m.Cells[0].Outcome = "maybe" }, "unknown outcome"},
		{"ok with error", func(m *Manifest) {
			for i := range m.Cells {
				if m.Cells[i].Outcome == OutcomeOK {
					m.Cells[i].Error = "spurious"
					return
				}
			}
		}, "outcome ok but error"},
		{"failed without error", func(m *Manifest) {
			for i := range m.Cells {
				if m.Cells[i].Outcome == OutcomeFailed {
					m.Cells[i].Error = ""
					return
				}
			}
		}, "without an error"},
		{"totals", func(m *Manifest) { m.Totals.SimCycles++ }, "disagree"},
		{"negative wall", func(m *Manifest) { m.Cells[0].WallSeconds = -1 }, "negative wall_seconds"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := fresh()
			tc.corrupt(m)
			err := m.Validate()
			if err == nil {
				t.Fatal("corruption accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// storeCampaign is sampleCampaign plus one cell restored from the durable
// store.
func storeCampaign() *Campaign {
	c := sampleCampaign()
	c.CellDone(CellSample{
		Machine: "4-port", Workload: "eqntott", ConfigJSON: []byte(`{"ports":4}`),
		StoreHit: true, Cycles: 7_000, Insts: 6_000,
		PortUtilization: 0.2, PortRejectRate: 0.01,
	})
	return c
}

// TestManifestStoreSummary pins the durable-store accounting: restored
// cells count as store hits, stay out of the simulated-work totals, and the
// campaign-level store summary survives the round trip.
func TestManifestStoreSummary(t *testing.T) {
	c := storeCampaign()
	if got := c.Totals().StoreHits; got != 1 {
		t.Fatalf("Totals().StoreHits = %d, want 1", got)
	}
	info := sampleInfo()
	info.Store = &ManifestStore{Dir: "cells", Resumed: true, Hits: 1, Misses: 2, Puts: 2}
	m := c.BuildManifest(info)
	if err := m.Validate(); err != nil {
		t.Fatalf("built manifest invalid: %v", err)
	}
	if m.Totals.StoreHits != 1 || m.Totals.Cells != 5 {
		t.Errorf("totals = %+v, want 1 store hit over 5 cells", m.Totals)
	}
	// The restored cell's cycles must not inflate the simulated totals.
	if m.Totals.SimCycles != 15_000 || m.Totals.SimInsts != 12_500 {
		t.Errorf("sim totals = %d/%d, want 15000/12500", m.Totals.SimCycles, m.Totals.SimInsts)
	}
	path := filepath.Join(t.TempDir(), "MANIFEST.json")
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Store == nil || *got.Store != *info.Store {
		t.Errorf("store summary drifted: %+v", got.Store)
	}
}

// TestManifestStoreValidation covers the store-specific corruption shapes.
func TestManifestStoreValidation(t *testing.T) {
	// fresh rebuilds from scratch every time: BuildManifest passes the
	// ManifestStore pointer through, so a corrupting case must not leak its
	// mutation into the next one.
	fresh := func() *Manifest {
		info := sampleInfo()
		info.Store = &ManifestStore{Dir: "cells", Hits: 1, Misses: 2, Puts: 2}
		return storeCampaign().BuildManifest(info)
	}

	m := fresh()
	m.Store = nil
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "without a store summary") {
		t.Errorf("store hits without a summary accepted: %v", err)
	}

	m = fresh()
	m.Store.Dir = ""
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "without a directory") {
		t.Errorf("store summary without dir accepted: %v", err)
	}

	m = fresh()
	m.Store.Hits = 0
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "store reports only") {
		t.Errorf("more store-hit cells than store hits accepted: %v", err)
	}

	m = fresh()
	for i := range m.Cells {
		if m.Cells[i].StoreHit {
			m.Cells[i].MemoHit = true
		}
	}
	if err := m.Validate(); err == nil || !strings.Contains(err.Error(), "both memo_hit and store_hit") {
		t.Errorf("cell with both hit kinds accepted: %v", err)
	}
}

// TestManifestArenasSummary: the trace-arena summary survives the round
// trip and the validator rejects the implausible shapes.
func TestManifestArenasSummary(t *testing.T) {
	info := sampleInfo()
	info.Arenas = &ManifestArenas{
		BudgetBytes: 512 << 20, Count: 2, Bytes: 61_440,
		Builds: 2, Hits: 9, Fallbacks: 1,
	}
	m := sampleCampaign().BuildManifest(info)
	if err := m.Validate(); err != nil {
		t.Fatalf("built manifest invalid: %v", err)
	}
	path := filepath.Join(t.TempDir(), "MANIFEST.json")
	if err := WriteManifest(path, m); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Arenas == nil || *got.Arenas != *info.Arenas {
		t.Errorf("arena summary drifted: %+v", got.Arenas)
	}
	// Manifests written while the registry could evict carry an
	// "evictions" count; they must still read.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	archived := strings.Replace(string(data), `"fallbacks": 1`, `"fallbacks": 1, "evictions": 3`, 1)
	if archived == string(data) {
		t.Fatal("manifest has no fallbacks field to extend")
	}
	if err := os.WriteFile(path, []byte(archived), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifest(path); err != nil {
		t.Errorf("a manifest with an evictions count no longer reads: %v", err)
	}

	fresh := func() *Manifest {
		i := sampleInfo()
		i.Arenas = &ManifestArenas{BudgetBytes: 1 << 20, Count: 1, Bytes: 100, Builds: 1, Hits: 3}
		return sampleCampaign().BuildManifest(i)
	}
	cases := []struct {
		name    string
		corrupt func(*ManifestArenas)
		want    string
	}{
		{"zero budget", func(a *ManifestArenas) { a.BudgetBytes = 0 }, "budget"},
		{"over budget", func(a *ManifestArenas) { a.Bytes = 2 << 20 }, "exceeds budget"},
		{"count without bytes", func(a *ManifestArenas) { a.Bytes = 0 }, "zero bytes"},
		{"count over builds", func(a *ManifestArenas) { a.Count = 5 }, "only 1 builds"},
	}
	for _, c := range cases {
		m := fresh()
		c.corrupt(m.Arenas)
		if err := m.Validate(); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s accepted: %v", c.name, err)
		}
	}
}

func TestWriteManifestRefusesInvalid(t *testing.T) {
	m := sampleCampaign().BuildManifest(sampleInfo())
	m.Schema = "nope"
	if err := WriteManifest(filepath.Join(t.TempDir(), "m.json"), m); err == nil {
		t.Fatal("invalid manifest written")
	}
}

// TestValidateRejectsDuplicateSimulatedKeys pins the identity check: two
// cells that both simulated the same cell key mean the memo failed to
// join them, whatever their display names.
func TestValidateRejectsDuplicateSimulatedKeys(t *testing.T) {
	m := sampleCampaign().BuildManifest(sampleInfo())
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	// The memo hit shares its owner's key; only simulated duplicates fail.
	var sim []int
	for i, c := range m.Cells {
		if !c.MemoHit && !c.StoreHit {
			sim = append(sim, i)
		}
	}
	m.Cells[sim[1]].CellKey = m.Cells[sim[0]].CellKey
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), "both simulated cell key") {
		t.Fatalf("duplicate simulated key accepted: %v", err)
	}
}
