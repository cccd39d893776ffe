package experiments

import (
	"fmt"
	"strconv"
	"strings"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/trace"
)

// FaultMode selects what a Fault injects.
type FaultMode string

// Fault modes.
const (
	// FaultPanic makes the workload's instruction stream panic after
	// Fault.After instructions — a stand-in for any generator or model
	// bug that unwinds the simulation goroutine.
	FaultPanic FaultMode = "panic"
	// FaultBadInst corrupts one instruction (a zero-size store) after
	// Fault.After instructions, driving the real store-buffer panic path
	// at commit.
	FaultBadInst FaultMode = "badinst"
	// FaultWedge sets the machine's FaultStuckDrain knob so the store
	// buffer never drains: commit wedges and the forward-progress
	// watchdog must diagnose it.
	FaultWedge FaultMode = "wedge"
)

// Fault describes one injected failure for robustness testing: every cell
// whose workload (or profile) name matches Workload is poisoned the same
// way; all other cells run clean. The fault is applied inside the
// simulation of the cell — after memo-key computation — so duplicate
// configurations across experiments share one contained failure exactly as
// they would share one result.
type Fault struct {
	// Mode is the kind of failure to inject.
	Mode FaultMode `json:"mode"`
	// Workload is the workload/profile name to poison.
	Workload string `json:"workload"`
	// After is how many instructions the stream delivers cleanly before
	// the fault (panic and badinst modes). The fault acts when the stream
	// is pulled, as a generator bug would, not when fetch reaches the
	// instruction: the core pulls cpu.StreamChunk (128) instructions at a
	// time ahead of fetch, so a panic fires when that read-ahead pulls
	// instruction After+1, up to 128 instructions before fetch would
	// reach it, and an After below 128 fires while the first chunk fills,
	// before any pipeline event. badinst corrupts instruction After+1,
	// which fails when it commits.
	After uint64 `json:"after,omitempty"`
}

// ParseFault parses the portbench -inject syntax "mode:workload[:after]".
func ParseFault(s string) (*Fault, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 || parts[0] == "" || parts[1] == "" {
		return nil, fmt.Errorf("experiments: bad fault %q; want mode:workload[:after]", s)
	}
	f := &Fault{Mode: FaultMode(parts[0]), Workload: parts[1]}
	switch f.Mode {
	case FaultPanic, FaultBadInst, FaultWedge:
	default:
		return nil, fmt.Errorf("experiments: unknown fault mode %q (have %s, %s, %s)",
			parts[0], FaultPanic, FaultBadInst, FaultWedge)
	}
	if len(parts) == 3 {
		if f.Mode == FaultWedge {
			// Wedge fires at machine construction, not at an instruction
			// count; a trailing :after would be silently ignored, which is
			// exactly the kind of fault spec a robustness run should reject.
			return nil, fmt.Errorf("experiments: fault mode %s takes no instruction count (got %q)", FaultWedge, s)
		}
		n, err := strconv.ParseUint(parts[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("experiments: bad fault instruction count %q: %v", parts[2], err)
		}
		f.After = n
	}
	return f, nil
}

// String renders the fault in ParseFault syntax.
func (f *Fault) String() string {
	if f.After > 0 {
		return fmt.Sprintf("%s:%s:%d", f.Mode, f.Workload, f.After)
	}
	return fmt.Sprintf("%s:%s", f.Mode, f.Workload)
}

// applies reports whether the fault targets the named cell.
func (f *Fault) applies(workloadName string) bool {
	return f != nil && f.Workload == workloadName
}

// arm poisons one cell's machine: wedge mode sets its FaultStuckDrain
// knob. m is the cell's private copy; the caller's configuration is
// untouched.
func (f *Fault) arm(m *config.Machine) {
	if f.Mode == FaultWedge {
		m.Ports.FaultStuckDrain = true
	}
}

// wrap poisons one cell's instruction stream: panic and badinst modes
// inject their fault into it.
func (f *Fault) wrap(stream trace.Stream) trace.Stream {
	switch f.Mode {
	case FaultPanic, FaultBadInst:
		return &faultStream{inner: stream, fault: f, clean: f.After}
	}
	return stream
}

// faultStream wraps a trace.Stream and injects the fault into instruction
// After+1. It reads its inner stream batch for batch, so a fault-armed
// cell pulls its cursor exactly as an unarmed one does.
type faultStream struct {
	inner trace.Stream
	fault *Fault
	clean uint64 // instructions still to deliver before the fault
	fired bool
}

// NextBatch delivers the underlying stream and poisons the batch that
// holds instruction After+1: panic mode panics in the pull that reaches
// it, badinst mode corrupts it.
func (s *faultStream) NextBatch(dst []isa.Inst) int {
	got := s.inner.NextBatch(dst)
	if s.fired {
		return got
	}
	if n := uint64(got); n <= s.clean {
		s.clean -= n
		return got
	}
	s.fired = true
	switch s.fault.Mode {
	case FaultPanic:
		panic(fmt.Sprintf("fault: injected stream panic in workload %q after %d instructions",
			s.fault.Workload, s.fault.After))
	case FaultBadInst:
		// A zero-size store passes fetch, rename and issue, then hits the
		// store buffer's size validation at commit — the documented
		// misuse panic in core.StoreBuffer.Insert.
		dst[s.clean].Class = isa.Store
		dst[s.clean].Size = 0
	}
	return got
}
