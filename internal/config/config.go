// Package config defines the machine configuration consumed by the
// simulator: core width and structure sizes, branch prediction, cache
// hierarchy geometry, memory timing, and — the experimental variables of the
// paper — the data-cache port arrangement and the port-efficiency features
// (decoupling store buffer, wide port, load-all line buffers, store
// combining).
package config

import (
	"encoding/json"
	"fmt"
)

// Core configures the dynamic superscalar core.
type Core struct {
	// FetchWidth is the maximum instructions fetched per cycle.
	FetchWidth int `json:"fetch_width"`
	// DecodeWidth is the maximum instructions renamed/dispatched per cycle.
	DecodeWidth int `json:"decode_width"`
	// IssueWidth is the maximum instructions issued to functional units
	// per cycle (across all queues).
	IssueWidth int `json:"issue_width"`
	// CommitWidth is the maximum instructions retired per cycle.
	CommitWidth int `json:"commit_width"`
	// ROBEntries sizes the reorder buffer.
	ROBEntries int `json:"rob_entries"`
	// IntIQEntries and FPIQEntries size the integer and floating-point
	// issue queues. Memory operations wait in the load/store queues.
	IntIQEntries int `json:"int_iq_entries"`
	FPIQEntries  int `json:"fp_iq_entries"`
	// LoadQueueEntries and StoreQueueEntries size the load/store queues.
	LoadQueueEntries  int `json:"load_queue_entries"`
	StoreQueueEntries int `json:"store_queue_entries"`
	// IntPhysRegs and FPPhysRegs size the physical register files.
	IntPhysRegs int `json:"int_phys_regs"`
	FPPhysRegs  int `json:"fp_phys_regs"`
	// IntALUs, IntMulDivs, FPAdders, FPMulDivs count functional units.
	IntALUs    int `json:"int_alus"`
	IntMulDivs int `json:"int_muldivs"`
	FPAdders   int `json:"fp_adders"`
	FPMulDivs  int `json:"fp_muldivs"`
	// MemIssuePerCycle is the maximum memory operations selected from the
	// load/store queues into the memory system per cycle (the processor
	// side; the cache-port arbiter further constrains what reaches the
	// cache arrays).
	MemIssuePerCycle int `json:"mem_issue_per_cycle"`
	// MispredictPenalty is the fetch-redirect bubble in cycles charged
	// when a branch misprediction resolves.
	MispredictPenalty int `json:"mispredict_penalty"`
	// WrongPathFetch models the instruction-cache pollution of fetching
	// down the mispredicted path while a branch resolves: each stalled
	// cycle fetches one wrong-path line into the L1I. Off by default (the
	// trace-driven baseline treats mispredict stalls as idle).
	WrongPathFetch bool `json:"wrong_path_fetch"`
	// SpeculativeLoads lets loads issue past older stores whose addresses
	// are still unknown (memory-dependence speculation). A store that
	// later resolves onto a speculatively issued younger load squashes
	// the pipeline for ViolationPenalty cycles.
	SpeculativeLoads bool `json:"speculative_loads"`
	// ViolationPenalty is the squash cost of a memory-order violation.
	ViolationPenalty int `json:"violation_penalty"`
}

// Latencies gives functional-unit execution latencies in cycles.
type Latencies struct {
	IntALU int `json:"int_alu"`
	IntMul int `json:"int_mul"`
	IntDiv int `json:"int_div"`
	FPAdd  int `json:"fp_add"`
	FPMul  int `json:"fp_mul"`
	FPDiv  int `json:"fp_div"`
	// AGen is the address-generation latency charged to memory operations
	// before they may access the memory system.
	AGen int `json:"agen"`
}

// Predictor configures branch prediction.
type Predictor struct {
	// Kind names the direction predictor. "gshare" is its only legal
	// value: every machine the experiments build uses it. The field stays
	// so the configuration document, and every cell key hashed from it,
	// keeps its shape.
	Kind string `json:"kind"`
	// TableEntries sizes the pattern-history table (power of two).
	TableEntries int `json:"table_entries"`
	// HistoryBits is the global-history length for gshare.
	HistoryBits int `json:"history_bits"`
	// BTBEntries and BTBAssoc size the branch target buffer.
	BTBEntries int `json:"btb_entries"`
	BTBAssoc   int `json:"btb_assoc"`
	// RASEntries sizes the return-address stack.
	RASEntries int `json:"ras_entries"`
}

// CacheGeom configures one cache level.
type CacheGeom struct {
	// SizeBytes is the total capacity.
	SizeBytes int `json:"size_bytes"`
	// Assoc is the set associativity.
	Assoc int `json:"assoc"`
	// LineBytes is the line size.
	LineBytes int `json:"line_bytes"`
	// HitLatency is the access latency in cycles on a hit.
	HitLatency int `json:"hit_latency"`
	// MSHRs is the number of outstanding-miss registers (0 disables the
	// limit, modelling an unbounded non-blocking cache).
	MSHRs int `json:"mshrs"`
	// WriteThrough switches the level to write-through, no-write-allocate
	// (only supported on the L1 data cache). Stores update the line if
	// present but never dirty it, and propagate to the next level; store
	// misses do not allocate. The design point where combining write
	// buffers were historically essential.
	WriteThrough bool `json:"write_through"`
}

// Sets returns the number of sets implied by the geometry.
func (g CacheGeom) Sets() int { return g.SizeBytes / (g.Assoc * g.LineBytes) }

// TLB configures one translation lookaside buffer. Entries == 0 disables
// translation modelling.
type TLB struct {
	// Entries is the number of fully associative entries.
	Entries int `json:"entries"`
	// PageBits is log2 of the page size.
	PageBits int `json:"page_bits"`
	// MissPenalty is the page-walk latency in cycles.
	MissPenalty int `json:"miss_penalty"`
}

// Memory configures the levels below the L1 data/instruction caches.
type Memory struct {
	L2 CacheGeom `json:"l2"`
	// DRAMLatency is the access latency of main memory in cycles.
	DRAMLatency int `json:"dram_latency"`
	// DRAMInterval is the minimum cycles between successive DRAM refills,
	// modelling finite memory bandwidth.
	DRAMInterval int `json:"dram_interval"`
}

// Ports configures the L1 data-cache port arrangement and the paper's
// port-efficiency techniques. This block carries every experimental variable
// of the reproduction.
type Ports struct {
	// Count is the number of independent cache ports; the paper compares
	// 1, 2 and 4. Each port accepts one access per cycle.
	Count int `json:"count"`
	// Banks line-interleaves the data array into this many single-ported
	// banks (1 or 0 disables banking). Banking is the classic cheap
	// alternative to true multi-porting the paper's techniques compete
	// with: up to Banks accesses proceed per cycle when they target
	// distinct banks, but same-bank accesses conflict. Banking requires
	// Count == 1 (the banks replace the ports).
	Banks int `json:"banks"`
	// WidthBytes is the width of each port. A port wider than the access
	// being made can, with LineBuffers > 0, fetch the whole aligned chunk
	// ("load-all") so later loads to the chunk skip the port entirely.
	WidthBytes int `json:"width_bytes"`
	// StoreBufferEntries is the depth of the decoupling store buffer
	// between commit and the cache port. Committed stores wait here; the
	// buffer drains opportunistically when a port is free.
	StoreBufferEntries int `json:"store_buffer_entries"`
	// StoreCombining enables coalescing of stores to the same aligned
	// WidthBytes chunk inside the store buffer, retiring several program
	// stores with one port write.
	StoreCombining bool `json:"store_combining"`
	// LineBuffers is the number of load-all line buffers (0 disables the
	// technique). Each holds one aligned WidthBytes chunk.
	LineBuffers int `json:"line_buffers"`
	// FillBytesPerCycle is the width of the L1 fill path from the L2 (a
	// refill or victim read-out occupies a port for LineBytes divided by
	// this many bytes each cycle). It is a property of the cache arrays
	// and fill buffers, common to every port arrangement, NOT of the
	// CPU-visible port width the paper varies.
	FillBytesPerCycle int `json:"fill_bytes_per_cycle"`
	// StoresCheckLineBuffers controls whether stores invalidate matching
	// line buffers (required for correctness whenever LineBuffers > 0;
	// exposed so tests can exercise the invariant).
	StoresCheckLineBuffers bool `json:"stores_check_line_buffers"`
	// StoresFirst inverts the port arbitration: the store buffer drains
	// before loads claim ports each cycle, instead of into leftover slots.
	// The paper gives loads priority; this switch exists for the A7
	// ablation that justifies that choice.
	StoresFirst bool `json:"stores_first"`
	// PrefetchNextLine enables sequential next-line prefetching on L1D
	// load misses (extension experiment A3). Prefetch probes have the
	// lowest port priority: they only use slots that loads, store drains
	// and refills leave idle — so prefetching interacts directly with the
	// port-bandwidth question the paper studies.
	PrefetchNextLine bool `json:"prefetch_next_line"`
	// PrefetchDegree is how many sequential lines each miss prefetches.
	PrefetchDegree int `json:"prefetch_degree"`
	// FaultStuckDrain is a fault-injection knob for robustness testing,
	// not a machine feature: when set, the store buffer never drains, so
	// it fills, commit wedges behind the oldest store, and the forward-
	// progress watchdog must catch and diagnose the stall. It lives in
	// the configuration (rather than test scaffolding) so a repro bundle
	// carries the wedge with it and replays identically.
	FaultStuckDrain bool `json:"fault_stuck_drain,omitempty"`
}

// Machine is the complete configuration of one simulated machine.
type Machine struct {
	Name  string    `json:"name"`
	Core  Core      `json:"core"`
	Lat   Latencies `json:"latencies"`
	Pred  Predictor `json:"predictor"`
	L1I   CacheGeom `json:"l1i"`
	L1D   CacheGeom `json:"l1d"`
	ITLB  TLB       `json:"itlb"`
	DTLB  TLB       `json:"dtlb"`
	Mem   Memory    `json:"memory"`
	Ports Ports     `json:"ports"`
}

// Baseline returns the R10000-class machine used throughout the paper's
// evaluation, with a single 8-byte data-cache port and none of the
// port-efficiency techniques enabled. Experiments start here and toggle
// fields in Ports.
func Baseline() Machine {
	return Machine{
		Name: "baseline-1port",
		Core: Core{
			FetchWidth:        4,
			DecodeWidth:       4,
			IssueWidth:        6,
			CommitWidth:       4,
			ROBEntries:        64,
			IntIQEntries:      32,
			FPIQEntries:       32,
			LoadQueueEntries:  16,
			StoreQueueEntries: 16,
			IntPhysRegs:       96,
			FPPhysRegs:        96,
			IntALUs:           2,
			IntMulDivs:        1,
			FPAdders:          1,
			FPMulDivs:         1,
			MemIssuePerCycle:  2,
			MispredictPenalty: 4,
		},
		Lat: Latencies{
			IntALU: 1, IntMul: 4, IntDiv: 20,
			FPAdd: 2, FPMul: 3, FPDiv: 18,
			AGen: 1,
		},
		Pred: Predictor{
			Kind:         "gshare",
			TableEntries: 4096,
			HistoryBits:  10,
			BTBEntries:   512,
			BTBAssoc:     4,
			RASEntries:   8,
		},
		L1I:  CacheGeom{SizeBytes: 32 << 10, Assoc: 2, LineBytes: 32, HitLatency: 1, MSHRs: 4},
		L1D:  CacheGeom{SizeBytes: 32 << 10, Assoc: 2, LineBytes: 32, HitLatency: 1, MSHRs: 8},
		ITLB: TLB{Entries: 48, PageBits: 12, MissPenalty: 20},
		DTLB: TLB{Entries: 64, PageBits: 12, MissPenalty: 20},
		Mem: Memory{
			L2:           CacheGeom{SizeBytes: 1 << 20, Assoc: 4, LineBytes: 64, HitLatency: 8, MSHRs: 8},
			DRAMLatency:  35,
			DRAMInterval: 6,
		},
		Ports: Ports{
			Count:                  1,
			WidthBytes:             8,
			StoreBufferEntries:     2,
			StoreCombining:         false,
			LineBuffers:            0,
			FillBytesPerCycle:      16,
			StoresCheckLineBuffers: true,
		},
	}
}

// DualPort returns the dual-ported comparison machine: two 8-byte cache
// ports with the same deep store buffer the proposed design gets. This is
// the paper's expensive, well-provisioned reference design.
func DualPort() Machine {
	m := Baseline()
	m.Name = "dual-port"
	m.Ports.Count = 2
	m.Ports.StoreBufferEntries = 16
	return m
}

// QuadPort returns an idealised four-ported machine, the upper bound used to
// motivate the study.
func QuadPort() Machine {
	m := DualPort()
	m.Name = "quad-port"
	m.Ports.Count = 4
	return m
}

// BestSingle returns the paper's proposed design: a single wide (16-byte)
// port with a deep combining store buffer and load-all line buffers. This is
// the configuration behind the headline "91% of dual-port" result.
func BestSingle() Machine {
	m := Baseline()
	m.Name = "best-single"
	m.Ports = Ports{
		Count:                  1,
		WidthBytes:             16,
		StoreBufferEntries:     16,
		StoreCombining:         true,
		LineBuffers:            2,
		FillBytesPerCycle:      16,
		StoresCheckLineBuffers: true,
	}
	return m
}

// Banked returns a machine whose data array is split into n line-
// interleaved single-ported banks — the cheap multi-porting alternative the
// paper's techniques are compared against.
func Banked(n int) Machine {
	m := Baseline()
	m.Name = fmt.Sprintf("banked-%d", n)
	m.Ports.Banks = n
	return m
}

// Presets maps preset names to constructors, for the CLIs.
var Presets = map[string]func() Machine{
	"baseline":    Baseline,
	"dual-port":   DualPort,
	"quad-port":   QuadPort,
	"best-single": BestSingle,
	"banked-2":    func() Machine { return Banked(2) },
	"banked-4":    func() Machine { return Banked(4) },
	"banked-8":    func() Machine { return Banked(8) },
}

// PresetNames returns the preset names in a fixed, documented order.
func PresetNames() []string {
	return []string{"baseline", "dual-port", "quad-port", "best-single", "banked-2", "banked-4", "banked-8"}
}

func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// validateGeom checks one cache level's geometry.
func validateGeom(what string, g CacheGeom) error {
	switch {
	case g.SizeBytes <= 0 || g.Assoc <= 0 || g.LineBytes <= 0:
		return fmt.Errorf("config: %s: size, associativity and line size must be positive", what)
	case !isPow2(g.LineBytes):
		return fmt.Errorf("config: %s: line size %d is not a power of two", what, g.LineBytes)
	case g.SizeBytes%(g.Assoc*g.LineBytes) != 0:
		return fmt.Errorf("config: %s: size %d not divisible by assoc*line (%d)", what, g.SizeBytes, g.Assoc*g.LineBytes)
	case !isPow2(g.Sets()):
		return fmt.Errorf("config: %s: set count %d is not a power of two", what, g.Sets())
	case g.HitLatency < 1:
		return fmt.Errorf("config: %s: hit latency must be at least 1 cycle", what)
	case g.MSHRs < 0:
		return fmt.Errorf("config: %s: negative MSHR count", what)
	}
	return nil
}

// Validate checks the whole machine configuration for internal consistency
// and returns a descriptive error naming the first offending field.
func (m *Machine) Validate() error {
	c := &m.Core
	for _, f := range []struct {
		name string
		v    int
	}{
		{"fetch width", c.FetchWidth}, {"decode width", c.DecodeWidth},
		{"issue width", c.IssueWidth}, {"commit width", c.CommitWidth},
		{"ROB entries", c.ROBEntries},
		{"int IQ entries", c.IntIQEntries}, {"fp IQ entries", c.FPIQEntries},
		{"load queue entries", c.LoadQueueEntries}, {"store queue entries", c.StoreQueueEntries},
		{"int ALUs", c.IntALUs}, {"int mul/divs", c.IntMulDivs},
		{"fp adders", c.FPAdders}, {"fp mul/divs", c.FPMulDivs},
		{"memory issue per cycle", c.MemIssuePerCycle},
	} {
		if f.v <= 0 {
			return fmt.Errorf("config: core %s must be positive", f.name)
		}
	}
	if c.IntPhysRegs < 32+1 {
		return fmt.Errorf("config: %d integer physical registers cannot back 32 architectural", c.IntPhysRegs)
	}
	if c.FPPhysRegs < 32+1 {
		return fmt.Errorf("config: %d fp physical registers cannot back 32 architectural", c.FPPhysRegs)
	}
	if c.MispredictPenalty < 0 {
		return fmt.Errorf("config: negative mispredict penalty")
	}
	if c.SpeculativeLoads && c.ViolationPenalty < 1 {
		return fmt.Errorf("config: speculative loads need a positive violation penalty")
	}
	if !c.SpeculativeLoads && c.ViolationPenalty != 0 {
		return fmt.Errorf("config: violation penalty set without speculative loads")
	}
	l := &m.Lat
	for _, f := range []struct {
		name string
		v    int
	}{
		{"int alu", l.IntALU}, {"int mul", l.IntMul}, {"int div", l.IntDiv},
		{"fp add", l.FPAdd}, {"fp mul", l.FPMul}, {"fp div", l.FPDiv},
		{"agen", l.AGen},
	} {
		if f.v <= 0 {
			return fmt.Errorf("config: latency %s must be positive", f.name)
		}
	}
	if m.Pred.Kind != "gshare" {
		return fmt.Errorf("config: predictor kind %q unsupported: the only kind is \"gshare\"", m.Pred.Kind)
	}
	if !isPow2(m.Pred.TableEntries) {
		return fmt.Errorf("config: predictor table entries %d not a power of two", m.Pred.TableEntries)
	}
	if m.Pred.HistoryBits < 1 || m.Pred.HistoryBits > 30 {
		return fmt.Errorf("config: gshare history bits %d out of range", m.Pred.HistoryBits)
	}
	if m.Pred.BTBEntries > 0 {
		if m.Pred.BTBAssoc <= 0 || m.Pred.BTBEntries%m.Pred.BTBAssoc != 0 || !isPow2(m.Pred.BTBEntries/m.Pred.BTBAssoc) {
			return fmt.Errorf("config: BTB geometry %d entries / %d-way invalid", m.Pred.BTBEntries, m.Pred.BTBAssoc)
		}
	}
	if m.Pred.RASEntries < 0 {
		return fmt.Errorf("config: negative RAS entries")
	}
	if err := validateGeom("L1I", m.L1I); err != nil {
		return err
	}
	if m.L1I.WriteThrough {
		return fmt.Errorf("config: write-through is only supported on the L1 data cache")
	}
	if m.Mem.L2.WriteThrough {
		return fmt.Errorf("config: write-through is only supported on the L1 data cache")
	}
	if err := validateGeom("L1D", m.L1D); err != nil {
		return err
	}
	for _, tl := range []struct {
		name string
		t    TLB
	}{{"ITLB", m.ITLB}, {"DTLB", m.DTLB}} {
		if tl.t.Entries < 0 {
			return fmt.Errorf("config: %s: negative entry count", tl.name)
		}
		if tl.t.Entries > 0 {
			if tl.t.PageBits < 10 || tl.t.PageBits > 30 {
				return fmt.Errorf("config: %s: page size 2^%d out of range", tl.name, tl.t.PageBits)
			}
			if tl.t.MissPenalty < 1 {
				return fmt.Errorf("config: %s: miss penalty must be positive", tl.name)
			}
		}
	}
	if err := validateGeom("L2", m.Mem.L2); err != nil {
		return err
	}
	if m.Mem.L2.LineBytes < m.L1D.LineBytes || m.Mem.L2.LineBytes%m.L1D.LineBytes != 0 {
		return fmt.Errorf("config: L2 line (%d) must be a multiple of L1D line (%d)", m.Mem.L2.LineBytes, m.L1D.LineBytes)
	}
	if m.Mem.DRAMLatency <= 0 || m.Mem.DRAMInterval < 0 {
		return fmt.Errorf("config: DRAM latency must be positive and interval non-negative")
	}
	p := &m.Ports
	if p.Count < 1 {
		return fmt.Errorf("config: at least one cache port required")
	}
	if p.Banks < 0 {
		return fmt.Errorf("config: negative bank count")
	}
	if p.Banks > 1 {
		if !isPow2(p.Banks) {
			return fmt.Errorf("config: bank count %d not a power of two", p.Banks)
		}
		if p.Count != 1 {
			return fmt.Errorf("config: banking replaces multi-porting; use Count=1 with Banks=%d", p.Banks)
		}
	}
	if !isPow2(p.WidthBytes) || p.WidthBytes < 8 {
		return fmt.Errorf("config: port width %d must be a power of two >= 8", p.WidthBytes)
	}
	if p.WidthBytes > m.L1D.LineBytes {
		return fmt.Errorf("config: port width %d exceeds L1D line size %d", p.WidthBytes, m.L1D.LineBytes)
	}
	if p.StoreBufferEntries < 1 {
		return fmt.Errorf("config: store buffer needs at least one entry")
	}
	if p.LineBuffers < 0 {
		return fmt.Errorf("config: negative line buffer count")
	}
	if !isPow2(p.FillBytesPerCycle) || p.FillBytesPerCycle < 8 {
		return fmt.Errorf("config: fill path width %d must be a power of two >= 8", p.FillBytesPerCycle)
	}
	if p.PrefetchNextLine && (p.PrefetchDegree < 1 || p.PrefetchDegree > 8) {
		return fmt.Errorf("config: prefetch degree %d out of range [1,8]", p.PrefetchDegree)
	}
	if !p.PrefetchNextLine && p.PrefetchDegree != 0 {
		return fmt.Errorf("config: prefetch degree set without enabling prefetch")
	}
	if p.LineBuffers > 0 && !p.StoresCheckLineBuffers {
		return fmt.Errorf("config: line buffers enabled without store invalidation checks; stale loads would result")
	}
	return nil
}

// MarshalJSON is provided by the embedded struct tags; ToJSON renders an
// indented form for the CLIs.
func (m *Machine) ToJSON() ([]byte, error) {
	return json.MarshalIndent(m, "", "  ")
}

// FromJSON parses a machine configuration and validates it.
func FromJSON(data []byte) (Machine, error) {
	var m Machine
	if err := json.Unmarshal(data, &m); err != nil {
		return Machine{}, fmt.Errorf("config: %w", err)
	}
	if err := m.Validate(); err != nil {
		return Machine{}, err
	}
	return m, nil
}
