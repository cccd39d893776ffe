package main

import (
	"bytes"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"portsim/internal/experiments"
	"portsim/internal/telemetry"
)

// stripTelemetryFooter removes the lines that legitimately differ when
// telemetry flags are on: timing, bench/trace/manifest confirmations.
func stripTelemetryFooter(out string) string {
	var kept []string
	for _, line := range strings.Split(out, "\n") {
		switch {
		case strings.HasPrefix(line, "total wall time:"),
			strings.Contains(line, "host throughput"),
			strings.HasPrefix(line, "trace written:"),
			strings.HasPrefix(line, "manifest written:"),
			strings.HasPrefix(line, "bench json written:"):
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestTelemetryDoesNotPerturbTables is the tables-byte-identity
// acceptance criterion: every telemetry surface enabled at once must not
// change a single byte of the rendered tables.
func TestTelemetryDoesNotPerturbTables(t *testing.T) {
	plain, err := runPB(t, "-quick", "-insts", "4000", "-only", "T2,F1,F6")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	traced, err := runPB(t, "-quick", "-insts", "4000", "-only", "T2,F1,F6",
		"-progress=plain",
		"-listen", "127.0.0.1:0",
		"-manifest", filepath.Join(dir, "MANIFEST.json"),
		"-trace-out", filepath.Join(dir, "cell.trace.json"))
	if err != nil {
		t.Fatal(err)
	}
	if stripTelemetryFooter(traced) != stripTelemetryFooter(plain) {
		t.Errorf("telemetry changed the tables:\n--- off ---\n%s\n--- on ---\n%s", plain, traced)
	}
}

// TestManifestMatchesPlannedCells runs the full suite and checks the
// manifest agrees with the experiments' plans, which the ETA and the
// planned gauge rely on, and that the document passes its own validator.
func TestManifestMatchesPlannedCells(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST.json")
	if _, err := runPB(t, "-quick", "-insts", "1000", "-manifest", path); err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	spec := experiments.Spec{Workloads: m.Workloads}
	want := 0
	for _, e := range experiments.Suite() {
		if slices.Contains(m.Experiments, e.ID) {
			want += len(e.Cells(spec))
		}
	}
	if m.Totals.Cells != want {
		t.Errorf("manifest holds %d cells, the plans say %d", m.Totals.Cells, want)
	}
	if m.Totals.MemoHits == 0 {
		t.Error("full suite must share cells through the memo cache")
	}
	if m.Totals.Failed != 0 {
		t.Errorf("%d cells failed in a healthy run", m.Totals.Failed)
	}
	if m.Totals.SimCycles == 0 || m.ConfigHash == "" {
		t.Errorf("manifest missing totals or hash: %+v", m.Totals)
	}
}

// TestManifestRecordsFailures injects a fault and checks the manifest
// still validates, with failed cells and the repro bundle path recorded.
func TestManifestRecordsFailures(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "MANIFEST.json")
	_, err := runPB(t, "-quick", "-insts", "2000", "-only", "T2",
		"-inject", "panic:compress:100", "-manifest", path, "-repro-dir", dir)
	if err == nil {
		t.Fatal("poisoned run succeeded")
	}
	m, rerr := telemetry.ReadManifest(path)
	if rerr != nil {
		t.Fatal(rerr)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Totals.Failed == 0 {
		t.Error("manifest records no failed cells")
	}
	if len(m.Bundles) == 0 {
		t.Error("manifest records no repro bundles")
	}
	for _, b := range m.Bundles {
		if _, err := os.Stat(b); err != nil {
			t.Errorf("bundle %s not on disk: %v", b, err)
		}
	}
}

// TestTraceFlagWiring checks -trace-out writes a trace for the default
// cell and that the dependent flags are rejected without it.
func TestTraceFlagWiring(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cell.trace.json")
	out, err := runPB(t, "-quick", "-insts", "2000", "-only", "T2", "-trace-out", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trace written: "+path) {
		t.Errorf("trace confirmation missing:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"traceEvents"`)) || !bytes.Contains(data, []byte(`"port lane 0"`)) {
		t.Error("trace file lacks the expected track structure")
	}

	if _, err := runPB(t, "-quick", "-only", "T2", "-trace-cell", "compress"); err == nil {
		t.Error("-trace-cell without -trace-out accepted")
	}
	if _, err := runPB(t, "-quick", "-only", "T2", "-trace-depth", "64"); err == nil {
		t.Error("-trace-depth without -trace-out accepted")
	}
}

// TestTraceFollowsCellKey traces F1's compress@1-port, which is a memo hit
// of T2's compress@baseline-1port (the same machine under another name).
// The trace must still be written, and must equal the trace of a run in
// which that cell owns the simulation, CPI-stack track included.
func TestTraceFollowsCellKey(t *testing.T) {
	dir := t.TempDir()
	trace := func(only, name string) []byte {
		path := filepath.Join(dir, name)
		out, err := runPB(t, "-quick", "-insts", "2000", "-only", only, "-cpistack",
			"-trace-out", path, "-trace-cell", "compress@1-port")
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, "trace written: "+path) {
			t.Fatalf("-only %s: trace confirmation missing:\n%s", only, out)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	joined := trace("T2,F1", "joined.trace.json")
	owned := trace("F1", "owned.trace.json")
	if !bytes.Contains(joined, []byte(`"port lane 0"`)) {
		t.Error("trace of a memo-hit cell lacks the expected track structure")
	}
	if !bytes.Equal(joined, owned) {
		t.Error("trace of a memo-hit cell differs from the trace of the same cell simulated directly")
	}
}

// TestTraceCellNeverRan checks a trace filter that matches no cell the
// selected experiments plan is rejected before anything simulates, naming
// the workloads and machines they do run: a misspelt workload, an unknown
// machine, and F7's default cell, whose workload F7 never runs.
func TestTraceCellNeverRan(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cell.trace.json")
	for _, c := range []struct {
		only, cell string
		names      []string
	}{
		{"T2", "compres@baseline-1port", []string{"compress, database, eqntott", "baseline-1port"}},
		{"T2", "compress@no-such-machine", []string{"compress@no-such-machine", "baseline-1port"}},
		{"F7", "", []string{"database-k-none", "best-single", "dual-port"}},
	} {
		out, err := runPB(t, "-quick", "-insts", "2000", "-only", c.only,
			"-trace-out", path, "-trace-cell", c.cell)
		if err == nil {
			t.Fatalf("-only %s -trace-cell %q accepted", c.only, c.cell)
		}
		for _, name := range c.names {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-only %s -trace-cell %q: error %q does not name %q", c.only, c.cell, err, name)
			}
		}
		if out != "" {
			t.Errorf("-only %s -trace-cell %q: output before the check:\n%s", c.only, c.cell, out)
		}
	}
	if _, err := os.Stat(path); err == nil {
		t.Error("trace file written for a cell that never ran")
	}
}

// TestListenServesDuringHold drives the real flag path: -listen with a
// random port plus -hold keeps the endpoint alive after the suite, long
// enough for an external scraper (here: this test) to read the finished
// campaign's gauges.
func TestListenServesDuringHold(t *testing.T) {
	addrCh := make(chan string, 1)
	testListenHook = func(addr string) { addrCh <- addr }
	defer func() { testListenHook = nil }()

	done := make(chan error, 1)
	go func() {
		_, err := runPB(t, "-quick", "-insts", "2000", "-only", "T2",
			"-listen", "127.0.0.1:0", "-hold", "5s")
		done <- err
	}()
	var addr string
	select {
	case addr = <-addrCh:
	case err := <-done:
		t.Fatalf("run finished before the listen hook fired: %v", err)
	}

	get := func(path string) string {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	if body := get("/healthz"); !strings.Contains(body, `"status": "ok"`) && !strings.Contains(body, `"status":"ok"`) {
		t.Errorf("/healthz = %s", body)
	}
	deadline := time.Now().Add(4 * time.Second)
	for {
		if body := get("/metrics"); strings.Contains(body, "portsim_cells_done_total 3\n") {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("campaign never reached done=3:\n%s", body)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}

// TestProgressModeParsing pins the flag grammar of -progress.
func TestProgressModeParsing(t *testing.T) {
	cases := []struct {
		in   string
		want progressMode
		err  bool
	}{
		{"", progressRich, false},
		{"true", progressRich, false},
		{"rich", progressRich, false},
		{"plain", progressPlain, false},
		{"false", progressOff, false},
		{"off", progressOff, false},
		{"loud", progressOff, true},
	}
	for _, tc := range cases {
		var m progressMode
		err := m.Set(tc.in)
		if (err != nil) != tc.err {
			t.Errorf("Set(%q) error = %v", tc.in, err)
		}
		if err == nil && m != tc.want {
			t.Errorf("Set(%q) = %v, want %v", tc.in, m, tc.want)
		}
	}
	var m progressMode
	if !m.IsBoolFlag() {
		t.Error("progress flag must accept bare -progress")
	}
}

// TestProgressPrinterModes exercises both renderers against a buffer.
func TestProgressPrinterModes(t *testing.T) {
	camp := telemetry.NewCampaign(2, false, nil)
	var plainBuf bytes.Buffer
	plain := newProgressPrinter(progressPlain, &plainBuf, 2, camp)
	plain.cellDone(telemetry.CellSample{Workload: "compress", Machine: "baseline-1port"})
	plain.cellDone(telemetry.CellSample{Workload: "compress", Machine: "baseline-1port", MemoHit: true})
	camp.CellDone(telemetry.CellSample{Machine: "m", Workload: "w", ConfigJSON: []byte("{}"),
		PortUtilization: -1, PortRejectRate: -1})
	plain.cellDone(telemetry.CellSample{Workload: "eqntott", Machine: "2-port", Failed: true})
	got := plainBuf.String()
	if !strings.Contains(got, "compress @ baseline-1port (memo)") {
		t.Errorf("plain mode missing memo marker:\n%s", got)
	}
	if !strings.Contains(got, "eqntott @ 2-port FAILED") {
		t.Errorf("plain mode missing failure marker:\n%s", got)
	}
	if strings.Count(got, "\n") != 3 {
		t.Errorf("plain mode must emit one line per cell:\n%q", got)
	}

	var richBuf bytes.Buffer
	rich := newProgressPrinter(progressRich, &richBuf, 2, camp)
	rich.cellDone(telemetry.CellSample{Workload: "compress", Machine: "baseline-1port"})
	rich.finish()
	line := richBuf.String()
	if !strings.HasPrefix(line, "\r") || !strings.Contains(line, "1/2 cells") {
		t.Errorf("rich line malformed: %q", line)
	}
	if !strings.HasSuffix(line, "\n") {
		t.Error("finish must terminate the rich line")
	}

	off := newProgressPrinter(progressOff, &richBuf, 2, camp)
	before := richBuf.Len()
	off.cellDone(telemetry.CellSample{})
	off.finish()
	if richBuf.Len() != before {
		t.Error("off mode wrote output")
	}
}
