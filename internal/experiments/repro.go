package experiments

import (
	"encoding/json"
	"fmt"

	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/workload"
)

// BundleVersion is the current repro-bundle format version.
const BundleVersion = 1

// Bundle is a self-contained, JSON-serialisable reproduction recipe for one
// failed experiment cell: the exact machine configuration (fault knobs
// included), the workload identity, the generator seed, and the instruction
// budget. Replaying a bundle re-runs the one cell with the flight recorder
// armed, so a failure captured in an unattended campaign can be dissected
// later with `portbench -repro <file>`.
type Bundle struct {
	Version int `json:"version"`
	// Machine is the failed cell's configuration, exactly as simulated.
	Machine config.Machine `json:"machine"`
	// Workload names a built-in workload; Profile overrides it for cells
	// that ran an ad-hoc mutated profile.
	Workload string            `json:"workload"`
	Profile  *workload.Profile `json:"profile,omitempty"`
	Seed     int64             `json:"seed"`
	Insts    uint64            `json:"insts"`
	// Fault, when present, is re-armed on replay — required for stream
	// faults (panic, badinst), which live outside the machine config.
	Fault *Fault `json:"fault,omitempty"`
}

// BundleFor builds a repro bundle from a cell failure and the spec that
// produced it. Wedge faults already travel inside the machine configuration
// (FaultStuckDrain); stream faults must be carried explicitly.
func BundleFor(ce *CellError, spec Spec) *Bundle {
	b := &Bundle{
		Version:  BundleVersion,
		Machine:  ce.Machine,
		Workload: ce.Workload,
		Profile:  ce.Profile,
		Seed:     ce.Seed,
		Insts:    ce.Insts,
	}
	if spec.Fault.applies(ce.Workload) {
		b.Fault = spec.Fault
	}
	return b
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
	if b.Version != BundleVersion {
		return nil, fmt.Errorf("experiments: repro bundle version %d not supported (want %d)", b.Version, BundleVersion)
	}
	if err := b.Machine.Validate(); err != nil {
		return nil, fmt.Errorf("experiments: repro bundle machine: %w", err)
	}
	if b.Insts == 0 {
		return nil, fmt.Errorf("experiments: repro bundle has a zero instruction budget")
	}
	if b.Profile == nil {
		if _, ok := workload.ByName(b.Workload); !ok {
			return nil, fmt.Errorf("experiments: repro bundle names unknown workload %q and carries no profile", b.Workload)
		}
	}
	return &b, nil
}

// Replay re-runs the bundled cell with the flight recorder armed. The
// simulator is deterministic, so a replay either reproduces the original
// failure — returning a CellError with fresh events and stack — or returns
// the clean result, proving the failure is gone.
func (b *Bundle) Replay() (*cpu.Result, error) {
	r := NewRunner(Spec{
		Workloads: []string{b.Workload},
		Insts:     b.Insts,
		Seed:      b.Seed,
		Parallel:  1,
		Fault:     b.Fault,
	})
	r.recordAll = true
	if b.Profile != nil {
		return r.run(cellReq{m: b.Machine, planStream: planStream{workload: b.Workload, streamSpec: streamSpec{prof: *b.Profile}}})
	}
	return r.Run(b.Machine, b.Workload)
}
