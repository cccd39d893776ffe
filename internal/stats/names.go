package stats

import (
	"fmt"

	"portsim/internal/isa"
)

// This file is the canonical counter vocabulary of the simulator. Every
// counter written into a stats.Set by non-test code is named here (or built
// by one of the name constructors below), and the core simulator packages
// are required by portlint's counterhygiene analyzer to use these constants
// rather than string literals — a typo'd name then fails compilation or
// lint instead of silently reading zero. Regenerate the expected write set
// with `go run ./cmd/portlint -counters ./...` when adding counters.

// Core pipeline counters (written by internal/cpu).
const (
	Cycles       = "cycles"
	Instructions = "instructions"
	InstsUser    = "insts.user"
	InstsKernel  = "insts.kernel"
	Loads        = "loads"
	Stores       = "stores"
	Branches     = "branches"
	Mispredicts  = "mispredicts"

	StallFetchCycles       = "stall.fetch_cycles"
	StallROBFullCycles     = "stall.rob_full_cycles"
	StallCommitStoreBuffer = "stall.commit_store_buffer"

	LSQForwards   = "lsq.forwards"
	LSQViolations = "lsq.violations"

	FetchWrongPathLines = "fetch.wrong_path_lines"
)

// Memory-hierarchy counters (written by internal/cpu from the cache and
// TLB models).
const (
	L1DHits       = "l1d.hits"
	L1DMisses     = "l1d.misses"
	L1DWritebacks = "l1d.writebacks"
	L1IHits       = "l1i.hits"
	L1IMisses     = "l1i.misses"
	L2Hits        = "l2.hits"
	L2Misses      = "l2.misses"
	DRAMAccesses  = "dram.accesses"
	ITLBHits      = "itlb.hits"
	ITLBMisses    = "itlb.misses"
	DTLBHits      = "dtlb.hits"
	DTLBMisses    = "dtlb.misses"
)

// Cache-port counters (written by internal/core's MemPort, the subsystem
// under study in the paper).
const (
	PortCycles               = "port.cycles"
	PortGrants               = "port.grants"
	PortLoadAccesses         = "port.load_accesses"
	PortStoreAccesses        = "port.store_accesses"
	PortLoadsFromCache       = "port.loads_from_cache"
	PortLoadsFromLineBuffer  = "port.loads_from_line_buffer"
	PortLoadsFromStoreBuffer = "port.loads_from_store_buffer"
	PortRejectPortBusy       = "port.reject_port_busy"
	PortRejectMSHR           = "port.reject_mshr"
	PortRejectStoreConflict  = "port.reject_store_conflict"
	PortRejectBankConflict   = "port.reject_bank_conflict"
	PortSBInserts            = "port.sb_inserts"
	PortSBCombined           = "port.sb_combined"
	PortSBDrains             = "port.sb_drains"
	PortSBForwards           = "port.sb_forwards"
	PortLBHits               = "port.lb_hits"
	PortLBFills              = "port.lb_fills"
	PortLBInvalidations      = "port.lb_invalidations"
	PortRefillCycles         = "port.refill_cycles"
	PortPrefetches           = "port.prefetches"
	PortUsefulPrefetches     = "port.useful_prefetches"
)

// PortRejectNames lists every load-rejection counter, in reporting order.
// Consumers that need "total rejects" (the telemetry reject-rate
// histogram, diagnosis summaries) must sum these rather than hand-pick a
// subset that silently goes stale when a rejection reason is added.
var PortRejectNames = []string{
	PortRejectPortBusy,
	PortRejectMSHR,
	PortRejectStoreConflict,
	PortRejectBankConflict,
}

// PortRejects returns the total load rejections recorded in s, summed
// over every rejection reason.
func PortRejects(s *Set) uint64 {
	var total uint64
	for _, name := range PortRejectNames {
		total += s.Get(name)
	}
	return total
}

// ClassCounter names the per-instruction-class commit counter for an
// isa.Class string (e.g. "class.load"). The only data-dependent counter
// family next to GrantBucket; counterhygiene treats calls to these
// constructors as canonical names. Both return precomputed names for the
// values the simulator writes, so building a result does not allocate
// them.
func ClassCounter(class string) string {
	if name, ok := classCounters[class]; ok {
		return name
	}
	return "class." + class
}

// GrantBucket names the port-grant histogram counter for cycles that
// granted exactly n accesses.
func GrantBucket(n int) string {
	if n >= 0 && n < len(grantBuckets) {
		return grantBuckets[n]
	}
	return fmt.Sprintf("port.cycles_with_%d_grants", n)
}

var classCounters, grantBuckets = func() (map[string]string, []string) {
	classes := make(map[string]string, isa.NumClasses)
	for c := isa.Class(0); int(c) < isa.NumClasses; c++ {
		classes[c.String()] = "class." + c.String()
	}
	grants := make([]string, 17)
	for n := range grants {
		grants[n] = fmt.Sprintf("port.cycles_with_%d_grants", n)
	}
	return classes, grants
}()

// VocabularyName returns the vocabulary's own string for the counter name
// spelled by b: a constant of this file, a ClassCounter name or a
// precomputed GrantBucket name. It reports false for any other name. A
// decoder that restores a stored result looks its names up here, so the
// restored result shares these strings as a simulated one does instead of
// allocating a copy of each. The lookup is read-only and safe for
// concurrent use.
func VocabularyName(b []byte) (string, bool) {
	name, ok := vocabulary[string(b)]
	return name, ok
}

// vocabulary maps every name of the vocabulary to itself.
// TestVocabularyCoversNamesFile keeps it in step with the constants above.
var vocabulary = func() map[string]string {
	names := []string{
		Cycles, Instructions, InstsUser, InstsKernel, Loads, Stores, Branches, Mispredicts,
		StallFetchCycles, StallROBFullCycles, StallCommitStoreBuffer,
		LSQForwards, LSQViolations, FetchWrongPathLines,
		L1DHits, L1DMisses, L1DWritebacks, L1IHits, L1IMisses, L2Hits, L2Misses, DRAMAccesses,
		ITLBHits, ITLBMisses, DTLBHits, DTLBMisses,
		PortCycles, PortGrants, PortLoadAccesses, PortStoreAccesses,
		PortLoadsFromCache, PortLoadsFromLineBuffer, PortLoadsFromStoreBuffer,
		PortRejectPortBusy, PortRejectMSHR, PortRejectStoreConflict, PortRejectBankConflict,
		PortSBInserts, PortSBCombined, PortSBDrains, PortSBForwards,
		PortLBHits, PortLBFills, PortLBInvalidations, PortRefillCycles,
		PortPrefetches, PortUsefulPrefetches,
	}
	vocab := make(map[string]string, len(names)+len(classCounters)+len(grantBuckets))
	for _, name := range names {
		vocab[name] = name
	}
	for _, name := range classCounters {
		vocab[name] = name
	}
	for _, name := range grantBuckets {
		vocab[name] = name
	}
	return vocab
}()
