package main

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"portsim/internal/telemetry"
)

func writeSample(t *testing.T, corrupt func(*telemetry.Manifest)) string {
	t.Helper()
	c := telemetry.NewCampaign(2, false, nil)
	c.CellDone(telemetry.CellSample{
		Machine: "baseline-1port", Workload: "compress", ConfigJSON: []byte(`{"ports":1}`),
		Key:         "k1",
		WallSeconds: 0.1, Cycles: 1000, Insts: 900,
		PortUtilization: 0.5, PortRejectRate: 0.1,
	})
	c.CellDone(telemetry.CellSample{
		Machine: "2-port", Workload: "compress", ConfigJSON: []byte(`{"ports":2}`),
		Key: "k2", Failed: true, Error: "experiments: deadline exceeded",
		PortUtilization: -1, PortRejectRate: -1,
	})
	m := c.BuildManifest(telemetry.ManifestInfo{
		CreatedAt: time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC),
		Command:   []string{"portbench", "-quick"},
		Seed:      42, Insts: 1000,
		Workloads: []string{"compress"},
		Parallel:  2, Experiments: []string{"T2"},
		Bundles: []string{"portbench-repro-2-port-compress.json"},
	})
	path := filepath.Join(t.TempDir(), "MANIFEST.json")
	if corrupt == nil {
		if err := telemetry.WriteManifest(path, m); err != nil {
			t.Fatal(err)
		}
		return path
	}
	corrupt(m)
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// withRetiredField copies the manifest at path into a new file that also
// carries "bench_json", the artifact path manifests recorded while portbench
// still wrote a throughput json of its own. Archived manifests keep it.
func withRetiredField(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	doc["bench_json"] = "throughput.json"
	if data, err = json.MarshalIndent(doc, "", "  "); err != nil {
		t.Fatal(err)
	}
	legacy := filepath.Join(t.TempDir(), "LEGACY_MANIFEST.json")
	if err := os.WriteFile(legacy, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return legacy
}

func TestValidManifestSummarised(t *testing.T) {
	current := writeSample(t, nil)
	for _, path := range []string{current, withRetiredField(t, current)} {
		var b strings.Builder
		if err := run([]string{path}, &b); err != nil {
			t.Fatal(err)
		}
		out := b.String()
		for _, want := range []string{
			"valid portsim-manifest/v1",
			"cells 2 (1 simulated, 0 memo hits, 0 store hits, 1 failed)",
			"FAILED compress @ 2-port: experiments: deadline exceeded",
			"repro bundle: portbench-repro-2-port-compress.json",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("summary missing %q:\n%s", want, out)
			}
		}
	}
}

func TestQuietSuppressesSummary(t *testing.T) {
	path := writeSample(t, nil)
	var b strings.Builder
	if err := run([]string{"-q", path}, &b); err != nil {
		t.Fatal(err)
	}
	if b.Len() != 0 {
		t.Errorf("-q printed output: %q", b.String())
	}
}

func TestCorruptManifestRejected(t *testing.T) {
	cases := []struct {
		name    string
		corrupt func(*telemetry.Manifest)
		wantErr string
	}{
		{"schema", func(m *telemetry.Manifest) { m.Schema = "v0" }, "schema"},
		{"totals", func(m *telemetry.Manifest) { m.Totals.SimCycles += 7 }, "disagree"},
		{"outcome", func(m *telemetry.Manifest) { m.Cells[0].Outcome = "maybe" }, "outcome"},
		{"cell_key", func(m *telemetry.Manifest) { m.Cells[1].CellKey = m.Cells[0].CellKey }, "both simulated cell key"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeSample(t, tc.corrupt)
			var b strings.Builder
			err := run([]string{path}, &b)
			if err == nil {
				t.Fatal("corrupt manifest accepted")
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not mention %q", err, tc.wantErr)
			}
			if n := strings.Count(err.Error(), path); n != 1 {
				t.Errorf("error %q names the manifest %d times, want once", err, n)
			}
		})
	}
}

func TestMissingAndMalformedFiles(t *testing.T) {
	absent := filepath.Join(t.TempDir(), "absent.json")
	if err := run([]string{absent}, io.Discard); err == nil || strings.Count(err.Error(), absent) != 1 {
		t.Errorf("missing file: error %v, want one naming the path once", err)
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := run([]string{bad}, &b); err == nil || strings.Count(err.Error(), bad) != 1 {
		t.Errorf("malformed JSON: error %v, want one naming the path once", err)
	}
	if err := run(nil, &b); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Errorf("no-args error = %v", err)
	}
}
