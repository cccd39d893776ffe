// Package portsim is a cycle-level simulator of a dynamic superscalar
// microprocessor with a configurable multi-ported first-level data cache,
// reproducing Wilson, Olukotun & Rosenblum, "Increasing Cache Port
// Efficiency for Dynamic Superscalar Microprocessors" (ISCA 1996).
//
// The package exposes four machine presets (a single-ported baseline, dual-
// and quad-ported references, and the paper's proposed "best single"
// configuration: one wide port with a deep combining store buffer and
// load-all line buffers), seven synthetic workloads modelled on the paper's
// SimOS applications including operating-system activity, and a Simulation
// type that runs a workload on a machine and reports IPC plus detailed port
// and cache statistics.
//
// Quick start:
//
//	sim, err := portsim.New(portsim.BestSingleConfig(), "compress", 42)
//	if err != nil { ... }
//	res, err := sim.Run(500_000)
//	fmt.Printf("IPC %.3f\n", res.IPC)
//
// The full experiment suite behind EXPERIMENTS.md lives in cmd/portbench.
package portsim

import (
	"fmt"

	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/isa"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// Config is a complete machine configuration. Construct one with a preset
// (BaselineConfig and friends) and adjust fields, then validate with
// (*Config).Validate via the underlying type.
type Config = config.Machine

// PortConfig is the data-cache port arrangement block of a Config — the
// experimental variables of the paper.
type PortConfig = config.Ports

// Result summarises a finished simulation: cycles, instructions, IPC, and a
// counter set with every detailed statistic (port.*, l1d.*, ...).
type Result = cpu.Result

// Profile describes a synthetic workload; see Workloads for the built-in
// set modelled on the paper's applications.
type Profile = workload.Profile

// Instruction is one dynamic instruction record, for callers that drive the
// simulator with their own streams.
type Instruction = isa.Inst

// InstructionStream supplies dynamic instructions to a Simulation.
type InstructionStream = trace.Stream

// BaselineConfig returns the paper's baseline: a single 8-byte cache port
// with a minimal store buffer and no port-efficiency techniques.
func BaselineConfig() Config { return config.Baseline() }

// DualPortConfig returns the expensive dual-ported reference machine.
func DualPortConfig() Config { return config.DualPort() }

// QuadPortConfig returns the idealised four-ported machine.
func QuadPortConfig() Config { return config.QuadPort() }

// BestSingleConfig returns the paper's proposal: one 16-byte port, a
// 16-entry combining store buffer and two load-all line buffers.
func BestSingleConfig() Config { return config.BestSingle() }

// ConfigNames lists the preset names accepted by ConfigByName.
func ConfigNames() []string { return config.PresetNames() }

// ConfigByName returns a preset machine configuration.
func ConfigByName(name string) (Config, bool) {
	ctor, ok := config.Presets[name]
	if !ok {
		return Config{}, false
	}
	return ctor(), true
}

// Workloads lists the built-in workload names in the order the paper-style
// tables use.
func Workloads() []string { return workload.Names() }

// WorkloadByName returns a built-in workload profile, which callers may
// modify before passing to NewFromProfile.
func WorkloadByName(name string) (Profile, bool) { return workload.ByName(name) }

// Simulation is one machine plus one instruction stream, ready to run. A
// Simulation is single-use: create a new one for every run.
//
// The model runs on the goroutine that calls Run. A simulation of a
// built-in workload (New, NewFromProfile) generates its instructions on a
// second goroutine, a bounded ring ahead of the core, which Run starts and
// stops; the generator's output does not depend on when it is called, so
// this changes no number. A caller's stream (NewFromStream) is read on the
// Run goroutine.
type Simulation struct {
	core *cpu.Core
	done bool
	// ahead is the read-ahead over a built-in workload generator, nil
	// for a caller's stream. The generator never exhausts its stream, so
	// Run must be given a positive instruction bound or it would spin
	// until the deadline guard — and with a zero bound the guard is
	// disabled, so it would never return at all.
	ahead *trace.ReadAhead
}

// New builds a simulation of the named built-in workload on the given
// machine.
func New(cfg Config, workloadName string, seed int64) (*Simulation, error) {
	prof, ok := workload.ByName(workloadName)
	if !ok {
		return nil, fmt.Errorf("portsim: unknown workload %q (have %v)", workloadName, Workloads())
	}
	return NewFromProfile(cfg, prof, seed)
}

// NewFromProfile builds a simulation of an arbitrary (possibly customised)
// workload profile.
func NewFromProfile(cfg Config, prof Profile, seed int64) (*Simulation, error) {
	gen, err := workload.New(prof, seed)
	if err != nil {
		return nil, err
	}
	ahead := trace.NewReadAhead(gen)
	s, err := NewFromStream(cfg, ahead)
	if err != nil {
		return nil, err
	}
	s.ahead = ahead
	return s, nil
}

// NewFromStream builds a simulation over a caller-supplied instruction
// stream (for replaying captured traces or custom generators). The stream
// must be non-nil.
func NewFromStream(cfg Config, stream InstructionStream) (*Simulation, error) {
	if stream == nil {
		return nil, fmt.Errorf("portsim: nil instruction stream")
	}
	core, err := cpu.New(&cfg, stream)
	if err != nil {
		return nil, err
	}
	return &Simulation{core: core}, nil
}

// Run simulates until maxInstructions commit (zero: until the stream ends)
// and returns the result. The built-in workload generators never end, so a
// positive bound is required with them; Run rejects the combination instead
// of hanging. Runs are guarded by a cycle deadline and a forward-progress
// watchdog, so a wedged model returns a diagnosed error rather than
// spinning forever.
//
// Over a built-in workload, Run generates at most maxInstructions on a
// second goroutine, which it starts after checking its arguments and stops
// before it returns, on every path. Fetch never asks for an instruction
// past the bound, so a completed Run uses every instruction generated.
func (s *Simulation) Run(maxInstructions uint64) (*Result, error) {
	if s.done {
		return nil, fmt.Errorf("portsim: simulation already ran; create a new one")
	}
	if s.ahead != nil && maxInstructions == 0 {
		return nil, fmt.Errorf("portsim: maxInstructions must be positive: the built-in workload generators never end, so an unbounded run would never return")
	}
	s.done = true
	if s.ahead != nil {
		s.ahead.Start(maxInstructions)
		defer s.ahead.Stop()
	}
	return s.core.Run(cpu.Options{
		MaxInstructions: maxInstructions,
		DeadlineCycles:  cpu.DeadlineFor(maxInstructions),
		StallCycles:     cpu.DefaultStallCycles,
	})
}
