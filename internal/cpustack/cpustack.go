// Package cpustack defines the simulator's cycle-accounting taxonomy: a
// leveled set of attribution buckets (useful work, front-end starvation,
// issue-blocked causes, memory-system waits, store-buffer back-pressure,
// commit latency) plus the conservation law that makes a CPI stack
// trustworthy — every simulated cycle lands in exactly one bucket, so the
// bucket sum equals the cycle count, exactly.
//
// The package is deliberately tiny and dependency-free: the model
// (internal/cpu) charges buckets on its own decision points, the
// presentation layers (internal/telemetry, cmd/portbench) read snapshots.
// Like internal/diag, a nil *Stack is the disabled state and costs the hot
// loop nothing but a pointer test; an armed stack costs one atomic add per
// attributed span and never allocates.
package cpustack

import (
	"fmt"
	"sync/atomic"
)

// Bucket identifies one leaf of the attribution taxonomy.
type Bucket uint8

// The taxonomy. Leveled: the issue.* buckets decompose "issue-blocked",
// the mem.* buckets decompose "waiting on the memory system". The order
// here is the reporting order everywhere (tables, manifests, /metrics,
// Perfetto tracks).
const (
	// Useful — at least one instruction committed this cycle.
	Useful Bucket = iota
	// FetchStarved — the reorder buffer was empty: the front end (fetch
	// stall, redirect bubble, instruction-cache miss) starved the back end.
	FetchStarved
	// IssuePortReject — a ready load offered to the cache port was
	// refused for a structural reason other than MSHR exhaustion: port
	// busy, bank conflict, or an overlapping buffered store.
	IssuePortReject
	// IssueOperandWait — the oldest instruction was still waiting for
	// operands (or address generation) and nothing above applied.
	IssueOperandWait
	// IssueDivider — the oldest instruction needed the unpipelined
	// multiply/divide unit: either executing on it or queued behind it.
	IssueDivider
	// MemMSHRFull — a ready load was refused because every miss-status
	// register was in flight.
	MemMSHRFull
	// MemDRAMBandwidth — the oldest instruction was a memory operation in
	// flight while the DRAM channel was busy (bandwidth, not latency).
	MemDRAMBandwidth
	// MemFillWait — the oldest instruction was a memory operation in
	// flight waiting on a cache fill or forward with the channel idle.
	MemFillWait
	// StoreBufferFull — the completed store at the head of the reorder
	// buffer could not commit because the store buffer refused it, or the
	// end-of-run drain was flushing buffered stores.
	StoreBufferFull
	// CommitStall — the oldest instruction had executed (or was in its
	// last execution cycles) and the machine was waiting out the
	// completion-to-commit latency.
	CommitStall
	// SkippedInert — charged by nothing: the core steps and classifies
	// every cycle. It stays so the CPI table keeps its column, the
	// benchmark's skipped-inert and stepped-fraction metrics resolve, and
	// stacks stored with the key still read back (FromMap).
	SkippedInert

	// NumBuckets is the bucket count; valid buckets are < NumBuckets.
	NumBuckets
)

// names is the canonical dotted spelling, index-aligned with the Bucket
// constants.
var names = [NumBuckets]string{
	"useful",
	"fetch-starved",
	"issue.port-reject",
	"issue.operand-wait",
	"issue.divider",
	"mem.mshr-full",
	"mem.dram-bandwidth",
	"mem.fill-wait",
	"store-buffer-full",
	"commit-stall",
	"skipped-inert",
}

// metricNames is the Prometheus-safe spelling ([a-z0-9_] only),
// index-aligned with the Bucket constants.
var metricNames = [NumBuckets]string{
	"useful",
	"fetch_starved",
	"issue_port_reject",
	"issue_operand_wait",
	"issue_divider",
	"mem_mshr_full",
	"mem_dram_bandwidth",
	"mem_fill_wait",
	"store_buffer_full",
	"commit_stall",
	"skipped_inert",
}

// String returns the canonical dotted bucket name.
func (b Bucket) String() string {
	if b >= NumBuckets {
		return fmt.Sprintf("bucket(%d)", uint8(b))
	}
	return names[b]
}

// MetricName returns the bucket name restricted to the metric-name
// charset, for /metrics series like portsim_cpi_mem_fill_wait_cycles_total.
func (b Bucket) MetricName() string { return metricNames[b] }

// Group returns the bucket's top taxonomy level: the issue.* buckets
// report "issue", the mem.* buckets "memory", everything else itself.
func (b Bucket) Group() string {
	switch b {
	case IssuePortReject, IssueOperandWait, IssueDivider:
		return "issue"
	case MemMSHRFull, MemDRAMBandwidth, MemFillWait:
		return "memory"
	default:
		return b.String()
	}
}

// BucketByName resolves a canonical dotted name back to its Bucket.
func BucketByName(name string) (Bucket, bool) {
	for b := Bucket(0); b < NumBuckets; b++ {
		if names[b] == name {
			return b, true
		}
	}
	return 0, false
}

// Names returns the canonical bucket names in reporting order.
func Names() []string {
	out := make([]string, NumBuckets)
	copy(out, names[:])
	return out
}

// Stack is a live cycle-attribution accumulator. The zero value is ready
// to use; a nil *Stack is the disabled state — every method is nil-safe,
// so callers keep the one-pointer-test discipline of internal/diag. The
// counters are atomics so a telemetry scrape (the /campaign endpoint) can
// snapshot a stack that a simulation worker is still charging.
type Stack struct {
	buckets [NumBuckets]atomic.Uint64
}

// NewStack returns an empty stack.
func NewStack() *Stack { return new(Stack) }

// Charge attributes n cycles to bucket b. No-op on a nil stack.
func (s *Stack) Charge(b Bucket, n uint64) {
	if s == nil || n == 0 {
		return
	}
	s.buckets[b].Add(n)
}

// Get returns the cycles charged to bucket b so far.
func (s *Stack) Get(b Bucket) uint64 {
	if s == nil {
		return 0
	}
	return s.buckets[b].Load()
}

// Total returns the cycles charged across every bucket.
func (s *Stack) Total() uint64 {
	if s == nil {
		return 0
	}
	var total uint64
	for b := range s.buckets {
		total += s.buckets[b].Load()
	}
	return total
}

// Snapshot freezes the stack into a plain value. Returns nil on a nil
// stack, so the snapshot of a disabled run stays "no data" rather than a
// stack of zeroes.
func (s *Stack) Snapshot() *Snapshot {
	if s == nil {
		return nil
	}
	var snap Snapshot
	for b := range s.buckets {
		snap.Buckets[b] = s.buckets[b].Load()
	}
	return &snap
}

// Reset zeroes every bucket (pooled-core reuse).
func (s *Stack) Reset() {
	if s == nil {
		return
	}
	for b := range s.buckets {
		s.buckets[b].Store(0)
	}
}

// Snapshot is a frozen CPI stack: plain counters, safe to copy, compare
// and serialise.
type Snapshot struct {
	Buckets [NumBuckets]uint64
}

// Get returns the cycles attributed to bucket b.
func (s *Snapshot) Get(b Bucket) uint64 { return s.Buckets[b] }

// Total returns the sum over every bucket.
func (s *Snapshot) Total() uint64 {
	var total uint64
	for _, v := range s.Buckets {
		total += v
	}
	return total
}

// CheckConservation verifies the invariant that makes a CPI stack
// meaningful: the buckets partition the run's cycles, so their sum equals
// the cycle count exactly.
func (s *Snapshot) CheckConservation(cycles uint64) error {
	if got := s.Total(); got != cycles {
		return fmt.Errorf("cpustack: buckets sum to %d cycles, run took %d (leak %+d)",
			got, cycles, int64(got)-int64(cycles))
	}
	return nil
}

// Map renders the snapshot as name → cycles, omitting empty buckets.
// This is the manifest's cpi_stack form.
func (s *Snapshot) Map() map[string]uint64 {
	if s == nil {
		return nil
	}
	out := make(map[string]uint64)
	for b := Bucket(0); b < NumBuckets; b++ {
		if s.Buckets[b] > 0 {
			out[names[b]] = s.Buckets[b]
		}
	}
	return out
}

// FromMap rebuilds a snapshot from its Map form, rejecting unknown bucket
// names so a manifest or stored cell written by an incompatible build
// fails loudly instead of silently dropping cycles.
func FromMap(m map[string]uint64) (*Snapshot, error) {
	if m == nil {
		return nil, nil
	}
	var snap Snapshot
	for name, v := range m {
		b, ok := BucketByName(name)
		if !ok {
			return nil, fmt.Errorf("cpustack: unknown bucket %q", name)
		}
		snap.Buckets[b] = v
	}
	return &snap, nil
}
