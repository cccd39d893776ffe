package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func runTG(t *testing.T, cmd string, args ...string) (string, error) {
	t.Helper()
	var b strings.Builder
	err := run(cmd, args, &b)
	return b.String(), err
}

func TestGenStatDumpProfilePipeline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.bin")
	out, err := runTG(t, "gen", "-workload", "eqntott", "-insts", "20000", "-seed", "7", "-o", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote 20000 instructions") {
		t.Fatalf("gen output: %s", out)
	}

	out, err = runTG(t, "stat", "-i", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"20000 instructions", "load", "branch", "conditional branches taken"} {
		if !strings.Contains(out, frag) {
			t.Errorf("stat missing %q:\n%s", frag, out)
		}
	}

	out, err = runTG(t, "dump", "-i", path, "-n", "10")
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(out, "\n"); lines != 10 {
		t.Errorf("dump printed %d lines, want 10", lines)
	}

	out, err = runTG(t, "profile", "-i", path)
	if err != nil {
		t.Fatal(err)
	}
	for _, frag := range []string{"adjacency @32B", "footprint", "instruction mix"} {
		if !strings.Contains(out, frag) {
			t.Errorf("profile missing %q:\n%s", frag, out)
		}
	}
}

func TestProfileDirectFromGenerator(t *testing.T) {
	out, err := runTG(t, "profile", "-workload", "pmake", "-insts", "20000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "pmake (20000 instructions") {
		t.Errorf("profile title wrong:\n%s", out)
	}
	if !strings.Contains(out, "kernel fraction") {
		t.Error("profile missing kernel fraction")
	}
}

func TestErrors(t *testing.T) {
	if _, err := runTG(t, "frobnicate"); err == nil {
		t.Error("unknown subcommand accepted")
	}
	if _, err := runTG(t, "gen", "-workload", "doom"); err == nil {
		t.Error("unknown workload accepted")
	}
	if _, err := runTG(t, "stat", "-i", "/nonexistent"); err == nil {
		t.Error("missing trace accepted")
	}
	if _, err := runTG(t, "profile", "-workload", "doom"); err == nil {
		t.Error("unknown workload accepted by profile")
	}
	// A garbage file must be rejected by stat and profile.
	path := filepath.Join(t.TempDir(), "garbage.bin")
	if err := writeFile(path, "this is not a trace"); err != nil {
		t.Fatal(err)
	}
	if _, err := runTG(t, "stat", "-i", path); err == nil {
		t.Error("garbage trace accepted by stat")
	}
	if _, err := runTG(t, "profile", "-i", path); err == nil {
		t.Error("garbage trace accepted by profile")
	}
}

// TestGenRejectsZeroBudget checks that gen refuses an empty trace before
// creating its output file: stat rejects an empty trace, and its bytes per
// instruction would print as +Inf.
func TestGenRejectsZeroBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.bin")
	out, err := runTG(t, "gen", "-workload", "eqntott", "-insts", "0", "-o", path)
	if err == nil {
		t.Fatalf("gen -insts 0 accepted: %s", out)
	}
	if _, statErr := os.Stat(path); !os.IsNotExist(statErr) {
		t.Errorf("gen -insts 0 left %s behind (stat: %v)", path, statErr)
	}
}

// TestProfileRejectsZeroBudget checks that profile refuses to profile no
// instructions from a generator instead of printing an empty report.
func TestProfileRejectsZeroBudget(t *testing.T) {
	out, err := runTG(t, "profile", "-workload", "pmake", "-insts", "0")
	if err == nil {
		t.Fatalf("profile -insts 0 accepted: %s", out)
	}
	if out != "" {
		t.Errorf("profile -insts 0 printed a report: %s", out)
	}
}
