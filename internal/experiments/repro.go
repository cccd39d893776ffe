package experiments

import (
	"encoding/json"
	"fmt"
	"slices"
	"strings"

	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/diag"
	"portsim/internal/workload"
)

// BundleVersion is the current repro-bundle format version.
const BundleVersion = 1

// maxBundleProcesses caps a bundle's multiprogramming level. A bundle is
// input from outside the program, and every process costs a generator's
// state; A6 runs at most 8.
const maxBundleProcesses = 64

// Bundle is a self-contained, JSON-serialisable description of one
// experiment cell: the exact machine configuration (fault knobs included),
// the stream (workload, profile and multiprogramming level), the generator
// seed, and the instruction budget. Replay re-runs the one cell with a
// flight recorder armed, so a failure captured in an unattended campaign
// can be dissected later with `portbench -repro <file>`, and a planned
// cell (CellBundle) traced with `portbench -trace-out`.
type Bundle struct {
	Version int `json:"version"`
	// Machine is the cell's configuration: as simulated for a failed cell
	// (BundleFor), as planned for CellBundle.
	Machine config.Machine `json:"machine"`
	// Workload names a built-in workload; Profile overrides it for cells
	// that ran an ad-hoc mutated profile.
	Workload string            `json:"workload"`
	Profile  *workload.Profile `json:"profile,omitempty"`
	// Processes and Quantum run Profile as a quantum-interleaved
	// multiprogram (A6); both are zero for a single program.
	Processes int    `json:"processes,omitempty"`
	Quantum   int    `json:"quantum,omitempty"`
	Seed      int64  `json:"seed"`
	Insts     uint64 `json:"insts"`
	// Fault, when present, is re-armed on replay — required for stream
	// faults (panic, badinst), which live outside the machine config.
	Fault *Fault `json:"fault,omitempty"`
}

// BundleFor builds a repro bundle from a cell failure and the spec that
// produced it. Wedge faults already travel inside the machine configuration
// (FaultStuckDrain); stream faults must be carried explicitly.
func BundleFor(ce *CellError, spec Spec) *Bundle {
	b := &Bundle{
		Version:   BundleVersion,
		Machine:   ce.Machine,
		Workload:  ce.Workload,
		Profile:   ce.Profile,
		Processes: ce.Processes,
		Quantum:   ce.Quantum,
		Seed:      ce.Seed,
		Insts:     ce.Insts,
	}
	if spec.Fault.applies(ce.Workload) {
		b.Fault = spec.Fault
	}
	return b
}

// CellBundle returns the bundle of the first cell the experiments plan
// under spec with the given workload and machine labels, in campaign
// order. Every label pair of a plan names one cell key, so the bundle
// describes the simulation the campaign ran under those labels. It fails,
// naming the workloads and machines the experiments do plan, when none
// plans the cell.
func CellBundle(spec Spec, exps []Experiment, workloadName, machineName string) (*Bundle, error) {
	var workloads, machines []string
	for _, e := range exps {
		// A plan is a full grid, so its first cell with both labels pairs
		// the first matching stream with the first matching machine.
		p := e.plan(spec)
		s := slices.IndexFunc(p.streams, func(ps planStream) bool { return ps.workload == workloadName })
		m := slices.IndexFunc(p.machines, func(mc config.Machine) bool { return mc.Name == machineName })
		if s >= 0 && m >= 0 {
			ps := p.streams[s]
			if ps.err != nil {
				return nil, ps.err
			}
			b := &Bundle{Version: BundleVersion, Machine: p.machines[m], Workload: ps.workload, Profile: &ps.prof,
				Processes: ps.processes, Quantum: ps.quantum, Seed: spec.Seed, Insts: spec.Insts}
			if spec.Fault.applies(ps.workload) {
				b.Fault = spec.Fault
			}
			return b, nil
		}
		for _, c := range e.Cells(spec) {
			workloads, machines = append(workloads, c.Workload), append(machines, c.Machine)
		}
	}
	slices.Sort(workloads)
	slices.Sort(machines)
	return nil, fmt.Errorf("experiments: the selected experiments plan no cell %s@%s (workloads: %s; machines: %s)",
		workloadName, machineName, strings.Join(slices.Compact(workloads), ", "), strings.Join(slices.Compact(machines), ", "))
}

// Encode serialises the bundle as indented JSON.
func (b *Bundle) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding repro bundle: %w", err)
	}
	return append(data, '\n'), nil
}

// ParseBundle decodes and validates a repro bundle.
func ParseBundle(data []byte) (*Bundle, error) {
	var b Bundle
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("experiments: parsing repro bundle: %w", err)
	}
	if err := b.validate(); err != nil {
		return nil, err
	}
	return &b, nil
}

// validate checks everything Replay relies on. A bundle file is input from
// outside the program, so the multiprogramming level is bounded before a
// stream allocates per-process state for it.
func (b *Bundle) validate() error {
	if b.Version != BundleVersion {
		return fmt.Errorf("experiments: repro bundle version %d not supported (want %d)", b.Version, BundleVersion)
	}
	if err := b.Machine.Validate(); err != nil {
		return fmt.Errorf("experiments: repro bundle machine: %w", err)
	}
	switch {
	case b.Insts == 0:
		return fmt.Errorf("experiments: repro bundle has a zero instruction budget")
	case b.Processes < 0 || b.Processes > maxBundleProcesses:
		return fmt.Errorf("experiments: repro bundle runs %d processes (want 0 to %d)", b.Processes, maxBundleProcesses)
	case b.Processes == 0 && b.Quantum != 0:
		return fmt.Errorf("experiments: repro bundle has a quantum of %d but no processes", b.Quantum)
	case b.Processes > 0 && b.Quantum < workload.MinQuantum:
		return fmt.Errorf("experiments: repro bundle quantum %d is below the minimum of %d", b.Quantum, workload.MinQuantum)
	case b.Processes > 0 && b.Profile == nil:
		return fmt.Errorf("experiments: repro bundle runs %d processes but carries no profile", b.Processes)
	}
	if _, ok := workload.ByName(b.Workload); !ok && b.Profile == nil {
		return fmt.Errorf("experiments: repro bundle names unknown workload %q and carries no profile", b.Workload)
	}
	return nil
}

// Replay re-runs the bundled cell on a fresh one-worker runner, with no
// memo and no store, recording its pipeline events into rec (a
// diag.DefaultDepth ring when rec is nil). cpiStack arms cycle accounting,
// which adds the CPI counter track to the events. The simulator is
// deterministic, so replaying a failed cell either reproduces the failure
// — returning a CellError with fresh events and stack — or returns the
// clean result, proving the failure is gone.
func (b *Bundle) Replay(rec *diag.Recorder, cpiStack bool) (*cpu.Result, error) {
	if err := b.validate(); err != nil {
		return nil, err
	}
	if rec == nil {
		rec = diag.NewRecorder(0)
	}
	prof := b.Profile
	if prof == nil {
		named, _ := workload.ByName(b.Workload)
		prof = &named
	}
	// One cell runs once, so it generates its stream live rather than
	// materialise an arena it would replay a single time.
	r := NewRunner(Spec{Insts: b.Insts, Seed: b.Seed, Parallel: 1, Fault: b.Fault, CPIStack: cpiStack, ArenaBudget: -1})
	c := cellReq{m: b.Machine, planStream: planStream{workload: b.Workload,
		streamSpec: streamSpec{prof: *prof, processes: b.Processes, quantum: b.Quantum}}}
	return r.runStream(&c, rec)
}
