package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"portsim/internal/telemetry"
)

// stripStore drops the store and arena footer lines on top of the timing
// footer: the store economics (restored vs simulated) and the arena replay
// counts legitimately differ between cold, warm and store-less runs — a
// restored cell never acquires an arena — while every table must not.
func stripStore(out string) string {
	var kept []string
	for _, line := range strings.Split(stripTiming(out), "\n") {
		if strings.HasPrefix(line, "store: ") || strings.HasPrefix(line, "arenas: ") {
			continue
		}
		kept = append(kept, line)
	}
	return strings.Join(kept, "\n")
}

// storeFooter extracts the "store: N restored, M simulated, ..." counts.
func storeFooter(t *testing.T, out string) (restored, simulated int) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "store: ") {
			if _, err := fmt.Sscanf(line, "store: %d restored, %d simulated", &restored, &simulated); err != nil {
				t.Fatalf("unparseable store footer %q: %v", line, err)
			}
			return restored, simulated
		}
	}
	t.Fatalf("no store footer in output:\n%s", out)
	return 0, 0
}

// TestStoreColdWarmOffByteIdentical is the CLI-level durability contract:
// the rendered tables must match byte for byte with no store, a cold store
// and a warm resumed store, and the warm run must restore every cell.
func TestStoreColdWarmOffByteIdentical(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	base := []string{"-quick", "-insts", "4000", "-only", "T2,F1", "-parallel", "2"}

	off, err := runPB(t, base...)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := runPB(t, append(base, "-store", dir)...)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := runPB(t, append(base, "-store", dir, "-resume")...)
	if err != nil {
		t.Fatal(err)
	}
	if stripStore(cold) != stripStore(off) {
		t.Errorf("cold-store output diverged from store-less:\n--- off ---\n%s\n--- cold ---\n%s", off, cold)
	}
	if stripStore(warm) != stripStore(off) {
		t.Errorf("warm-store output diverged from store-less:\n--- off ---\n%s\n--- warm ---\n%s", off, warm)
	}
	coldRestored, coldSim := storeFooter(t, cold)
	if coldRestored != 0 || coldSim == 0 {
		t.Errorf("cold run footer = %d restored, %d simulated; want all simulated", coldRestored, coldSim)
	}
	warmRestored, warmSim := storeFooter(t, warm)
	if warmSim != 0 || warmRestored != coldSim {
		t.Errorf("warm run footer = %d restored, %d simulated; want %d restored, 0 simulated",
			warmRestored, warmSim, coldSim)
	}
}

// TestStoreFlagValidation covers the flag error paths.
func TestStoreFlagValidation(t *testing.T) {
	if _, err := runPB(t, "-quick", "-resume"); err == nil || !strings.Contains(err.Error(), "-resume needs -store") {
		t.Errorf("-resume without -store: %v", err)
	}
	if _, err := runPB(t, "-quick", "-inject-store", "torn"); err == nil || !strings.Contains(err.Error(), "-inject-store needs -store") {
		t.Errorf("-inject-store without -store: %v", err)
	}
	missing := filepath.Join(t.TempDir(), "never-created")
	if _, err := runPB(t, "-quick", "-store", missing, "-resume"); err == nil || !strings.Contains(err.Error(), "nothing to resume") {
		t.Errorf("-resume with missing store dir: %v", err)
	}
	dir := t.TempDir()
	if _, err := runPB(t, "-quick", "-store", dir, "-inject-store", "frob"); err == nil {
		t.Error("bad -inject-store mode accepted")
	}
	if _, err := runPB(t, "-quick", "-store", dir, "-inject-store", "torn:2"); err == nil {
		t.Error("out-of-range -inject-store rate accepted")
	}
}

// TestStoreFaultModesFinishGreen drives each -inject-store mode through a
// cold run and a warm rerun: every mode must leave the campaign green with
// byte-identical tables; torn and corrupt entries quarantine on the warm
// read, ioerr degrades the store mid-run.
func TestStoreFaultModesFinishGreen(t *testing.T) {
	base := []string{"-quick", "-insts", "4000", "-only", "F1"}
	ref, err := runPB(t, base...)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []string{"torn", "corrupt", "ioerr"} {
		t.Run(mode, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "cells")
			faulted, err := runPB(t, append(base, "-store", dir, "-inject-store", mode)...)
			if err != nil {
				t.Fatalf("faulted cold run failed: %v", err)
			}
			if stripStore(faulted) != stripStore(ref) {
				t.Errorf("faulted run tables diverged:\n--- ref ---\n%s\n--- faulted ---\n%s", ref, faulted)
			}
			if mode == "ioerr" {
				if !strings.Contains(faulted, "degraded") {
					t.Errorf("ioerr run did not report degradation:\n%s", faulted)
				}
				return
			}
			// Every entry was damaged at write time; the warm run must
			// quarantine them all, re-simulate, and still match.
			warm, err := runPB(t, append(base, "-store", dir, "-resume")...)
			if err != nil {
				t.Fatalf("warm run over damaged store failed: %v", err)
			}
			if stripStore(warm) != stripStore(ref) {
				t.Errorf("warm run tables diverged:\n--- ref ---\n%s\n--- warm ---\n%s", ref, warm)
			}
			if !strings.Contains(warm, "quarantined") {
				t.Errorf("warm run over damaged store reported no quarantines:\n%s", warm)
			}
			if restored, _ := storeFooter(t, warm); restored != 0 {
				t.Errorf("restored %d cells from all-damaged store", restored)
			}
		})
	}
}

// TestStoreManifestRecordsResume pins the manifest's store summary.
func TestStoreManifestRecordsResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	manifest := filepath.Join(t.TempDir(), "MANIFEST.json")
	base := []string{"-quick", "-insts", "4000", "-only", "F1", "-store", dir}
	if _, err := runPB(t, base...); err != nil {
		t.Fatal(err)
	}
	if _, err := runPB(t, append(base, "-resume", "-manifest", manifest)...); err != nil {
		t.Fatal(err)
	}
	m, err := telemetry.ReadManifest(manifest)
	if err != nil {
		t.Fatal(err)
	}
	if m.Store == nil || !m.Store.Resumed || m.Store.Dir != dir {
		t.Fatalf("manifest store summary = %+v", m.Store)
	}
	if m.Store.Hits == 0 || m.Totals.StoreHits == 0 {
		t.Errorf("resumed manifest reports no store hits: store %+v totals %+v", m.Store, m.Totals)
	}
}

// TestStoreChild is the subprocess half of TestKillAndResume, real only
// when the environment says so: it runs the suite with the parent's args
// and is SIGKILLed partway through.
func TestStoreChild(t *testing.T) {
	if os.Getenv("PORTSIM_STORE_CHILD") != "1" {
		t.Skip("helper for TestKillAndResume")
	}
	if err := run(strings.Split(os.Getenv("PORTSIM_STORE_ARGS"), "\x1f"), os.Stdout); err != nil {
		t.Fatal(err)
	}
}

// TestKillAndResume is the crash-safety proof: start a campaign against a
// store, SIGKILL the process partway through, then resume with the same
// store and assert the tables are byte-identical to an undisturbed run
// while strictly fewer cells simulate the second time.
func TestKillAndResume(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "cells")
	args := []string{"-quick", "-insts", "8000", "-only", "F1,F2", "-parallel", "1", "-progress=plain", "-store", dir}

	cmd := exec.Command(os.Args[0], "-test.run", "^TestStoreChild$", "-test.v")
	cmd.Env = append(os.Environ(),
		"PORTSIM_STORE_CHILD=1",
		"PORTSIM_STORE_ARGS="+strings.Join(args, "\x1f"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The plain progress stream reports each finished cell; kill after a
	// handful so the store holds a strict subset of the campaign.
	const killAfter = 4
	seen := 0
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if strings.Contains(sc.Text(), "portbench: cell ") {
			if seen++; seen >= killAfter {
				break
			}
		}
	}
	if err := cmd.Process.Kill(); err != nil {
		t.Fatalf("SIGKILL failed: %v", err)
	}
	go io.Copy(io.Discard, stderr) //nolint:errcheck // draining a dead child
	_ = cmd.Wait()
	if seen < killAfter {
		t.Fatalf("child finished after only %d cells; campaign too small to kill mid-run", seen)
	}

	entries, err := filepath.Glob(filepath.Join(dir, "*.cell.json"))
	if err != nil || len(entries) == 0 {
		t.Fatalf("killed campaign left no durable cells (%v, %v)", entries, err)
	}

	ref, err := runPB(t, "-quick", "-insts", "8000", "-only", "F1,F2", "-parallel", "1")
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := runPB(t, append(args, "-resume")...)
	if err != nil {
		t.Fatalf("resume failed: %v", err)
	}
	if stripStore(resumed) != stripStore(ref) {
		t.Errorf("resumed output diverged from undisturbed run:\n--- ref ---\n%s\n--- resumed ---\n%s", ref, resumed)
	}
	restored, simulated := storeFooter(t, resumed)
	if restored == 0 {
		t.Error("resume restored nothing; the kill lost every finished cell")
	}
	if simulated == 0 {
		t.Error("resume simulated nothing; the child must have finished before the kill")
	}
	if restored+simulated != 0 && simulated >= restored+simulated {
		t.Errorf("resume simulated %d of %d cells — not strictly fewer", simulated, restored+simulated)
	}

	// The interrupted run may have died mid-Put; the write discipline means
	// at worst a swept temp file, never a half-visible entry, so the store
	// directory must now be fully healthy, every entry at the 0600 mode
	// its temp file was created with.
	leftover, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(leftover) != 0 {
		t.Errorf("temp files survived the resume sweep: %v", leftover)
	}
	entries, _ = filepath.Glob(filepath.Join(dir, "*.cell.json"))
	for _, path := range entries {
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if info.Mode().Perm() != 0o600 {
			t.Errorf("entry %s: mode %v, want 0600", path, info.Mode())
		}
	}
	if strings.Contains(resumed, "quarantined") {
		t.Errorf("crash-safe writes should never need a quarantine on resume:\n%s", resumed)
	}
}
