package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"portsim/internal/telemetry"
)

// stripArenas drops the arena footer on top of the timing footer, for
// comparisons between runs whose arena economics legitimately differ.
func stripArenas(out string) string {
	var kept []string
	for _, line := range strings.Split(stripTiming(out), "\n") {
		if strings.HasPrefix(line, "arenas: ") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// TestArenaOnOffByteIdentical is the CLI-level statement of the arena
// guarantee: every table is byte-identical with trace arenas shared
// (default), private to each cell (off), and squeezed into a budget that
// forces private builds — serial and parallel. At 20000 instructions every
// A6 level switches processes, and the squeezed budget is too small for a
// whole trace but holds A6's per-process prefixes, so that run both builds
// privately and replays shared arenas.
func TestArenaOnOffByteIdentical(t *testing.T) {
	base := []string{"-quick", "-insts", "20000", "-only", "T2,F1,A6"}
	on, err := runPB(t, base...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(on, "arenas: ") {
		t.Errorf("default run missing the arena footer:\n%s", on)
	}
	off, err := runPB(t, append(base, "-arena-budget", "off")...)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(off, "arenas: ") {
		t.Error("-arena-budget off still printed the arena footer")
	}
	if stripArenas(on) != stripArenas(off) {
		t.Errorf("arenas-on output diverged from arenas-off:\n--- on ---\n%s\n--- off ---\n%s", on, off)
	}
	tight, err := runPB(t, append(base, "-arena-budget", "300kb")...)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(tight, "fallbacks") || strings.Contains(tight, "arenas: 0 built") {
		t.Errorf("tight budget did not both build privately and replay:\n%s", tight)
	}
	// 300kb is 300,000 bytes: the footer prints it, not a rounded 0 MiB.
	if !strings.Contains(tight, "KiB of 293.0 KiB budget)") {
		t.Errorf("tight budget footer does not print the budget:\n%s", tight)
	}
	if stripArenas(tight) != stripArenas(off) {
		t.Errorf("private-build output diverged from arenas-off:\n--- tight ---\n%s\n--- off ---\n%s", tight, off)
	}
	par, err := runPB(t, append(base, "-parallel", "8")...)
	if err != nil {
		t.Fatal(err)
	}
	if stripTiming(par) != stripTiming(on) {
		t.Errorf("-parallel 8 with arenas diverged from serial:\n--- serial ---\n%s\n--- parallel ---\n%s", on, par)
	}
}

// TestArenaBudgetRejected: a malformed -arena-budget is a flag error, not
// a silent default.
func TestArenaBudgetRejected(t *testing.T) {
	if _, err := runPB(t, "-quick", "-only", "T1", "-arena-budget", "lots"); err == nil {
		t.Error("malformed -arena-budget accepted")
	}
}

// TestHugeBudgetRefused: a cell whose trace may outgrow every arena
// budget fails at once naming -arena-budget, for single programs (T2) and
// multiprograms (A6) alike, instead of generating or counting without end.
// The ceiling is one plain failure: each FAILED line prints its message
// once with the cells it stopped, the summary counts it once, and the
// message leaves out the saturated worst-case size.
func TestHugeBudgetRefused(t *testing.T) {
	type result struct {
		out string
		err error
	}
	done := make(chan result, 1)
	go func() {
		out, err := runPB(t, "-quick", "-only", "T2,A6", "-insts", "18446744073709551615")
		done <- result{out, err}
	}()
	select {
	case r := <-done:
		if r.err == nil {
			t.Fatalf("a campaign of 2^64-1 instructions succeeded:\n%s", r.out)
		}
		for _, f := range []struct {
			id    string
			cells int
		}{{"T2", 3}, {"A6", 12}} {
			if want := fmt.Sprintf("%s: FAILED: %d cells: experiments: a trace of", f.id, f.cells); !strings.Contains(r.out, want) {
				t.Errorf("output lacks %q:\n%s", want, r.out)
			}
		}
		if n := strings.Count(r.out, "a trace of"); n != 2 {
			t.Errorf("the ceiling message is printed %d times, want once per experiment:\n%s", n, r.out)
		}
		if !strings.Contains(r.out, "-arena-budget") {
			t.Errorf("the failures do not name -arena-budget:\n%s", r.out)
		}
		if strings.Contains(r.out, "9223372036854775807") {
			t.Errorf("the message prints the saturated worst-case size:\n%s", r.out)
		}
		if want := "2 experiment(s) failed (T2,A6) with 1 distinct cell failure(s)"; r.err.Error() != want {
			t.Errorf("summary = %q, want %q", r.err, want)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("a campaign of 2^64-1 instructions still ran after 10 s")
	}
}

// TestManifestArenaSummary: a campaign that shares arenas records their
// economics in the run manifest; with arenas off the section is absent.
func TestManifestArenaSummary(t *testing.T) {
	path := filepath.Join(t.TempDir(), "MANIFEST.json")
	if _, err := runPB(t, "-quick", "-insts", "4000", "-only", "F1", "-manifest", path); err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	if m.Arenas == nil {
		t.Fatal("manifest has no arena summary with arenas on")
	}
	if m.Arenas.Builds == 0 || m.Arenas.Hits == 0 || m.Arenas.Bytes == 0 {
		t.Errorf("arena summary implausible: %+v", m.Arenas)
	}

	off := filepath.Join(t.TempDir(), "MANIFEST.json")
	if _, err := runPB(t, "-quick", "-insts", "4000", "-only", "F1", "-manifest", off, "-arena-budget", "off"); err != nil {
		t.Fatal(err)
	}
	mo, err := telemetry.ReadManifest(off)
	if err != nil {
		t.Fatal(err)
	}
	if mo.Arenas != nil {
		t.Errorf("manifest has an arena summary with arenas off: %+v", mo.Arenas)
	}
}
