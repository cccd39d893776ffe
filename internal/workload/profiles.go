package workload

import "slices"

// Data-region base addresses. User regions sit low, kernel data high;
// everything is disjoint from the code ranges in generator.go.
const (
	heapBase   = 0x1000_0000
	hotBase    = 0x1800_0000
	tableBase  = 0x2000_0000
	streamBase = 0x3000_0000
	stackBase  = 0x7fff_0000
	kdataBase  = 0x9000_0000
	khotBase   = 0x9800_0000
	kbufBase   = 0xa000_0000
)

// Region locality follows the classic hot/cold split: each random or
// pointer-chasing structure is modelled as a heavily weighted hot subset
// (fits in or near the L1) plus a lightly weighted cold whole (misses to L2
// or memory). This reproduces the ~90-97% L1 hit rates of the paper's
// cache-resident workloads while keeping a realistic miss tail.

// kernelDefault is the kernel-mode behaviour shared by the profiles:
// integer-dominated code with mixed locality (hot dispatch structures, cold
// file-cache buffers) and a code working set larger than any one user loop —
// the cache-disruptive behaviour the paper's OS-inclusive methodology
// captures.
func kernelDefault(everyMean, lengthMean int) KernelSpec {
	return KernelSpec{
		EveryMean:  everyMean,
		LengthMean: lengthMean,
		Mix:        Mix{Load: 0.31, Store: 0.16, IntMul: 0.01},
		Regions: []Region{
			{Name: "khot", Weight: 0.49, Base: khotBase, Size: 12 << 10, Pattern: Random},
			{Name: "kstructs", Weight: 0.03, Base: kdataBase, Size: 128 << 10, Pattern: Random},
			{Name: "kbuffers", Weight: 0.33, Base: kbufBase, Size: 128 << 10, Pattern: Sequential, StrideBytes: 8, Run: 6},
			{Name: "kstack", Weight: 0.15, Base: kdataBase + (16 << 20), Size: 16 << 10, Pattern: Stack},
		},
		CodeBlocks:   1200,
		MeanBlockLen: 6,
	}
}

// Profiles returns the seven workload profiles of the evaluation, in the
// order the paper-style tables list them. Each models the reference-stream
// statistics of one application family (see DESIGN.md for the mapping).
func Profiles() []Profile {
	return []Profile{
		{
			Name:        "compress",
			Description: "SPEC compress: integer, sequential input buffer plus a hashed dictionary",
			Mix:         Mix{Load: 0.30, Store: 0.15, IntMul: 0.01},
			Regions: []Region{
				{Name: "input", Weight: 0.35, Base: streamBase, Size: 1 << 20, Pattern: Sequential, StrideBytes: 8, Run: 7},
				{Name: "hashhot", Weight: 0.45, Base: hotBase, Size: 12 << 10, Pattern: Random},
				{Name: "hashcold", Weight: 0.02, Base: tableBase, Size: 128 << 10, Pattern: Random},
				{Name: "stack", Weight: 0.18, Base: stackBase, Size: 8 << 10, Pattern: Stack},
			},
			CodeBlocks:   300,
			MeanBlockLen: 7,
			Size8Frac:    0.35,
			Size1Frac:    0.25,
			Kernel:       kernelDefault(20000, 600),
		},
		{
			Name:        "eqntott",
			Description: "SPEC eqntott: branchy integer over hot small arrays, high spatial locality",
			Mix:         Mix{Load: 0.33, Store: 0.10},
			Regions: []Region{
				{Name: "bitvecs", Weight: 0.7, Base: tableBase, Size: 40 << 10, Pattern: Sequential, StrideBytes: 8, Run: 8},
				{Name: "terms", Weight: 0.02, Base: heapBase, Size: 128 << 10, Pattern: Random},
				{Name: "termhot", Weight: 0.18, Base: hotBase, Size: 12 << 10, Pattern: Random},
				{Name: "stack", Weight: 0.1, Base: stackBase, Size: 8 << 10, Pattern: Stack},
			},
			CodeBlocks:   200,
			MeanBlockLen: 5,
			Size8Frac:    0.25,
			Size1Frac:    0.1,
			Kernel:       kernelDefault(30000, 500),
		},
		{
			Name:        "mp3d",
			Description: "SPLASH mp3d: FP particle code, strided array sweeps, heavy load traffic",
			Mix:         Mix{Load: 0.34, Store: 0.16, FPAdd: 0.13, FPMul: 0.09, FPDiv: 0.01},
			Regions: []Region{
				{Name: "particles", Weight: 0.42, Base: heapBase, Size: 2 << 20, Pattern: Strided, StrideBytes: 40, Run: 5},
				{Name: "cellhot", Weight: 0.38, Base: hotBase, Size: 12 << 10, Pattern: Random},
				{Name: "cells", Weight: 0.05, Base: tableBase, Size: 128 << 10, Pattern: Random},
				{Name: "stack", Weight: 0.15, Base: stackBase, Size: 8 << 10, Pattern: Stack},
			},
			CodeBlocks:   250,
			MeanBlockLen: 9,
			Size8Frac:    0.8,
			Kernel:       kernelDefault(40000, 500),
		},
		{
			Name:        "raytrace",
			Description: "rendering: FP with pointer chasing through a BVH, poor spatial locality",
			Mix:         Mix{Load: 0.34, Store: 0.12, FPAdd: 0.11, FPMul: 0.09, FPDiv: 0.01},
			Regions: []Region{
				{Name: "bvhhot", Weight: 0.45, Base: hotBase, Size: 12 << 10, Pattern: Chase},
				{Name: "bvh", Weight: 0.03, Base: heapBase, Size: 128 << 10, Pattern: Chase},
				{Name: "trihot", Weight: 0.24, Base: hotBase + (64 << 10), Size: 8 << 10, Pattern: Random},
				{Name: "tris", Weight: 0.03, Base: tableBase, Size: 192 << 10, Pattern: Random},
				{Name: "stack", Weight: 0.25, Base: stackBase, Size: 16 << 10, Pattern: Stack},
			},
			CodeBlocks:   500,
			MeanBlockLen: 8,
			Size8Frac:    0.75,
			Kernel:       kernelDefault(35000, 500),
		},
		{
			Name:        "verilog",
			Description: "VCS gate-level simulation: irregular integer event lists, large footprint",
			Mix:         Mix{Load: 0.33, Store: 0.14, IntMul: 0.005},
			Regions: []Region{
				{Name: "nethot", Weight: 0.43, Base: hotBase, Size: 12 << 10, Pattern: Chase},
				{Name: "netlist", Weight: 0.02, Base: heapBase, Size: 128 << 10, Pattern: Chase},
				{Name: "events", Weight: 0.35, Base: tableBase, Size: 512 << 10, Pattern: Sequential, StrideBytes: 16, Run: 8},
				{Name: "valhot", Weight: 0.18, Base: hotBase + (64 << 10), Size: 8 << 10, Pattern: Random},
				{Name: "values", Weight: 0.02, Base: streamBase, Size: 128 << 10, Pattern: Random},
			},
			CodeBlocks:   900,
			MeanBlockLen: 6,
			Size8Frac:    0.3,
			Size1Frac:    0.05,
			Kernel:       kernelDefault(25000, 600),
		},
		{
			Name:        "database",
			Description: "commercial OLTP: random probes over a large footprint, frequent kernel entries",
			Mix:         Mix{Load: 0.32, Store: 0.15, IntMul: 0.005},
			Regions: []Region{
				{Name: "bufhot", Weight: 0.51, Base: hotBase, Size: 12 << 10, Pattern: Random},
				{Name: "bufpool", Weight: 0.05, Base: heapBase, Size: 1 << 20, Pattern: Random},
				{Name: "index", Weight: 0.04, Base: tableBase, Size: 256 << 10, Pattern: Chase},
				{Name: "log", Weight: 0.15, Base: streamBase, Size: 512 << 10, Pattern: Sequential, StrideBytes: 8, Run: 6},
				{Name: "stack", Weight: 0.25, Base: stackBase, Size: 16 << 10, Pattern: Stack},
			},
			CodeBlocks:   1500,
			MeanBlockLen: 6,
			Size8Frac:    0.45,
			Kernel:       kernelDefault(4000, 900),
		},
		{
			Name:        "pmake",
			Description: "parallel compilation: OS-dominated, short processes, cold caches",
			Mix:         Mix{Load: 0.31, Store: 0.15, IntMul: 0.01},
			Regions: []Region{
				{Name: "asthot", Weight: 0.43, Base: hotBase, Size: 12 << 10, Pattern: Chase},
				{Name: "ast", Weight: 0.03, Base: heapBase, Size: 128 << 10, Pattern: Chase},
				{Name: "symhot", Weight: 0.15, Base: hotBase + (64 << 10), Size: 12 << 10, Pattern: Random},
				{Name: "symtab", Weight: 0.04, Base: tableBase, Size: 128 << 10, Pattern: Random},
				{Name: "srcbuf", Weight: 0.15, Base: streamBase, Size: 512 << 10, Pattern: Sequential, StrideBytes: 8, Run: 6},
				{Name: "stack", Weight: 0.2, Base: stackBase, Size: 16 << 10, Pattern: Stack},
			},
			CodeBlocks:   1000,
			MeanBlockLen: 6,
			Size8Frac:    0.3,
			Size1Frac:    0.15,
			Kernel:       kernelDefault(2500, 1200),
		},
	}
}

// ByName returns the named profile.
func ByName(name string) (Profile, bool) {
	for _, p := range builtins {
		if p.Name == name {
			// Clone the region tables: the caller owns its copy.
			p.Regions = slices.Clone(p.Regions)
			p.Kernel.Regions = slices.Clone(p.Kernel.Regions)
			return p, true
		}
	}
	return Profile{}, false
}

// builtins is the profile table ByName copies from, built once.
var builtins = Profiles()

// Names lists the profile names in table order.
func Names() []string {
	ps := Profiles()
	out := make([]string, len(ps))
	for i, p := range ps {
		out[i] = p.Name
	}
	return out
}
