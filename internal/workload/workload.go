// Package workload provides deterministic synthetic workload generators
// that stand in for the paper's SimOS/IRIX applications. Each generator
// emits a dynamic instruction stream (implementing trace.Stream) whose
// statistics — instruction mix, working-set size, spatial and temporal
// locality, store adjacency, and periodic kernel episodes — are the
// properties the cache-port study actually depends on.
//
// A workload is described by a Profile: an instruction mix, a set of data
// regions with access patterns, a synthetic code layout (basic blocks with
// per-branch biases, calls and returns), and a kernel-activity model that
// periodically traps into a separate kernel code/data footprint, following
// the paper's emphasis on evaluating with operating-system activity
// included.
//
// Generators are fully deterministic: the same profile and seed always
// produce the identical stream.
package workload

import "fmt"

// Pattern selects how a data region is walked.
type Pattern uint8

// Region access patterns.
const (
	// Sequential walks the region with a fixed stride, wrapping at the
	// end — high spatial locality (buffers, arrays, streams).
	Sequential Pattern = iota
	// Strided walks with a stride larger than the access size — the
	// particle-array style of mp3d, defeating narrow spatial locality.
	Strided
	// Random touches uniformly distributed aligned addresses — hash
	// tables, OLTP index probes.
	Random
	// Chase models pointer chasing: the next address depends on the
	// previous load's value, so consecutive chase loads are serially
	// dependent and spatially unrelated.
	Chase
	// Stack models push/pop traffic near a moving stack pointer — very
	// hot, very local.
	Stack
)

// String names the pattern.
func (p Pattern) String() string {
	switch p {
	case Sequential:
		return "sequential"
	case Strided:
		return "strided"
	case Random:
		return "random"
	case Chase:
		return "chase"
	case Stack:
		return "stack"
	}
	return fmt.Sprintf("pattern(%d)", uint8(p))
}

// Region describes one data region of a workload.
type Region struct {
	// Name labels the region in dumps.
	Name string
	// Weight is the relative probability a memory access targets this
	// region.
	Weight float64
	// Base and Size delimit the region.
	Base, Size uint64
	// Pattern selects the walk.
	Pattern Pattern
	// StrideBytes is the walk stride for Sequential/Strided.
	StrideBytes uint64
	// Run is the number of consecutive accesses made at adjacent
	// addresses before the pattern advances (models multi-word records:
	// a run of 2-4 gives the wide port spatially adjacent work).
	Run int
}

// Mix gives the instruction-class mix of a workload's body instructions.
// Fractions are of all instructions; the remainder after memory, FP and
// long-latency integer ops is single-cycle integer ALU work. Control flow is
// structural (one terminator per basic block) and therefore set by
// MeanBlockLen in the Profile, not by Mix.
type Mix struct {
	Load   float64
	Store  float64
	FPAdd  float64
	FPMul  float64
	FPDiv  float64
	IntMul float64
	IntDiv float64
	Nop    float64
}

func (m Mix) total() float64 {
	return m.Load + m.Store + m.FPAdd + m.FPMul + m.FPDiv + m.IntMul + m.IntDiv + m.Nop
}

// KernelSpec configures the kernel-activity model: every EveryMean user
// instructions (exponentially distributed), the workload traps into kernel
// code for LengthMean instructions (also exponential), executing with the
// kernel's own mix, regions and code footprint.
type KernelSpec struct {
	// EveryMean is the mean number of user instructions between kernel
	// entries; zero disables kernel activity.
	EveryMean int
	// LengthMean is the mean kernel episode length in instructions.
	LengthMean int
	// Mix is the kernel instruction mix.
	Mix Mix
	// Regions are the kernel data regions.
	Regions []Region
	// CodeBlocks is the kernel code footprint in basic blocks.
	CodeBlocks int
	// MeanBlockLen is the kernel basic-block length.
	MeanBlockLen int
}

// Profile fully describes a synthetic workload.
type Profile struct {
	// Name identifies the workload in tables.
	Name string
	// Description says what real application family it models.
	Description string
	// Mix is the user-mode instruction mix.
	Mix Mix
	// Regions are the user-mode data regions (weights need not sum to 1;
	// they are normalised).
	Regions []Region
	// CodeBlocks is the number of static basic blocks (code footprint).
	CodeBlocks int
	// MeanBlockLen is the mean instructions per basic block, including
	// the terminator; it determines the control-flow fraction.
	MeanBlockLen int
	// Size8Frac and Size1Frac give the fraction of memory accesses that
	// are 8-byte and 1-byte respectively; the rest are 4-byte.
	Size8Frac, Size1Frac float64
	// Kernel configures OS activity.
	Kernel KernelSpec
}

// Validate checks the profile for internal consistency.
func (p *Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile has no name")
	}
	if t := p.Mix.total(); t < 0 || t > 1 {
		return fmt.Errorf("workload: %s: mix fractions sum to %v", p.Name, t)
	}
	if len(p.Regions) == 0 && p.Mix.Load+p.Mix.Store > 0 {
		return fmt.Errorf("workload: %s: memory mix but no regions", p.Name)
	}
	for i, r := range p.Regions {
		if err := validateRegion(p.Name, false, r); err != nil {
			return fmt.Errorf("%w (region %d)", err, i)
		}
	}
	if p.CodeBlocks < 1 {
		return fmt.Errorf("workload: %s: needs at least one code block", p.Name)
	}
	if p.MeanBlockLen < 2 {
		return fmt.Errorf("workload: %s: mean block length %d too small", p.Name, p.MeanBlockLen)
	}
	if p.Size8Frac < 0 || p.Size1Frac < 0 || p.Size8Frac+p.Size1Frac > 1 {
		return fmt.Errorf("workload: %s: size fractions invalid", p.Name)
	}
	k := &p.Kernel
	if k.EveryMean < 0 || k.LengthMean < 0 {
		return fmt.Errorf("workload: %s: negative kernel cadence", p.Name)
	}
	if k.EveryMean > 0 {
		if k.LengthMean < 1 {
			return fmt.Errorf("workload: %s: kernel episodes need a length", p.Name)
		}
		if t := k.Mix.total(); t < 0 || t > 1 {
			return fmt.Errorf("workload: %s: kernel mix sums to %v", p.Name, t)
		}
		if len(k.Regions) == 0 && k.Mix.Load+k.Mix.Store > 0 {
			return fmt.Errorf("workload: %s: kernel memory mix but no kernel regions", p.Name)
		}
		for i, r := range k.Regions {
			if err := validateRegion(p.Name, true, r); err != nil {
				return fmt.Errorf("%w (kernel region %d)", err, i)
			}
		}
		if k.CodeBlocks < 1 || k.MeanBlockLen < 2 {
			return fmt.Errorf("workload: %s: kernel code layout invalid", p.Name)
		}
	}
	return nil
}

// validateRegion checks one region of the named profile, a kernel region
// when kernel is set, whose errors name the profile as name/kernel. It
// builds no string unless the region is invalid.
func validateRegion(name string, kernel bool, r Region) error {
	var problem string
	switch {
	case r.Weight <= 0:
		problem = "weight must be positive"
	case r.Size < 64:
		problem = "smaller than a cache line"
	case r.Base%8 != 0:
		problem = "base not 8-byte aligned"
	case (r.Pattern == Sequential || r.Pattern == Strided) && (r.StrideBytes == 0 || r.StrideBytes%8 != 0):
		problem = "needs an 8-byte-multiple stride"
	case r.Run < 0:
		problem = "negative run"
	default:
		return nil
	}
	if kernel {
		name += "/kernel"
	}
	return fmt.Errorf("workload: %s: region %q %s", name, r.Name, problem)
}
