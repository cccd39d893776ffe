package core

import (
	"fmt"

	"portsim/internal/config"
	"portsim/internal/diag"
	"portsim/internal/mem"
	"portsim/internal/stats"
)

// LoadResult reports the outcome of offering a load to the memory port.
type LoadResult struct {
	// Accepted is false when the load could not start this cycle (all
	// ports granted, MSHRs exhausted, or a partial store-buffer overlap);
	// the issue logic retries on a later cycle.
	Accepted bool
	// Ready is the cycle the load's data is available (valid if Accepted).
	Ready uint64
	// Source tells where the data came from, for statistics.
	Source LoadSource
}

// LoadSource identifies the structure that satisfied a load.
type LoadSource uint8

// Load data sources.
const (
	// SourceCache means the load consumed a port and accessed the cache.
	SourceCache LoadSource = iota
	// SourceLineBuffer means a load-all buffer supplied the data; no port
	// was consumed.
	SourceLineBuffer
	// SourceStoreBuffer means the store buffer forwarded the data; no
	// port was consumed.
	SourceStoreBuffer
)

// String returns a short name for the source.
func (s LoadSource) String() string {
	switch s {
	case SourceCache:
		return "cache"
	case SourceLineBuffer:
		return "line-buffer"
	case SourceStoreBuffer:
		return "store-buffer"
	}
	return fmt.Sprintf("source(%d)", uint8(s))
}

// RejectReason classifies why a load was refused, for the port-pressure
// statistics that motivate the paper.
type RejectReason uint8

// Load rejection reasons.
const (
	// RejectNone: the load was accepted.
	RejectNone RejectReason = iota
	// RejectPortBusy: every port was already granted this cycle.
	RejectPortBusy
	// RejectMSHR: the cache could not accept another outstanding miss.
	RejectMSHR
	// RejectStoreConflict: a store-buffer entry partially overlaps the
	// load; it must wait for the store to reach the cache.
	RejectStoreConflict
	// RejectBankConflict: the access's bank already served another access
	// this cycle (banked configurations only).
	RejectBankConflict
)

// MemPort is the data-cache port subsystem: it owns the port grants of the
// current cycle, the load-all line buffers, and the combining store buffer,
// and it is the only path by which the core reaches the L1 data cache. The
// simulated core calls, per cycle:
//
//	BeginCycle(now)          // once, at the top of the cycle
//	TryLoad(now, addr, size) // for each load selected to issue
//	TryCommitStore(...)      // for each committing store
//	EndCycle(now)            // once; drains stores into leftover port slots
type MemPort struct {
	cfg  config.Ports
	sys  *mem.System
	lbs  *LineBufferSet
	sb   *StoreBuffer
	wide bool // port wider than the largest scalar access

	grants int // ports consumed this cycle

	// Prefetch state: line addresses queued by load misses, issued into
	// idle slots with the lowest priority. The queue is a fixed-capacity
	// ring (pfHead oldest, pfCount occupancy); candidates beyond its
	// capacity are dropped, as before.
	prefetchQueue   [maxPrefetchQueue]uint64
	pfHead, pfCount int
	prefetched      map[uint64]bool
	prefetches      uint64
	usefulPrefetch  uint64

	// Banking state (cfg.Banks > 1): the data array is line-interleaved
	// into single-ported banks; up to one access proceeds per bank per
	// cycle, and refill debt is owed per bank.
	banked        bool
	bankBusy      []bool
	bankDebt      []int
	bankMask      uint64
	bankConflicts uint64

	// Refill bandwidth: a line fill (and a dirty victim's read-out) must
	// move LineBytes through the FillBytesPerCycle-wide fill path,
	// occupying one port for LineBytes/FillBytesPerCycle cycles starting
	// when the fill arrives. The fill path is a fixed property of the
	// arrays, shared by every port arrangement, so extra or wider CPU
	// ports do not change the per-miss cost — only how much other traffic
	// it displaces.
	pendingRefills []refillWindow
	refillDue      uint64 // earliest pendingRefills at, NeverEvent when none
	refillDebt     int
	refillCycles   uint64

	// Statistics.
	loadPortAccesses  uint64
	storePortAccesses uint64
	loadsBySource     [3]uint64
	rejects           [5]uint64
	cycles            uint64
	busyGrants        uint64 // total grants, for utilisation
	grantHist         *stats.Histogram

	// rec is the optional flight recorder (nil when disabled); it sees
	// store-drain grants, the port-side events the core cannot observe.
	rec *diag.Recorder
}

// refillWindow is a scheduled array write: starting at `at`, the port (or,
// when banked, the line's bank) owes `cycles` of occupancy.
type refillWindow struct {
	at     uint64
	cycles int
	bank   int
}

// SlotsPerCycle is the peak accesses per cycle a port arrangement allows:
// one per bank when banked, otherwise one per port. Exported for the
// telemetry layer, which renders one trace lane per slot and normalises
// utilization by it — the same divisor Utilisation uses.
func SlotsPerCycle(cfg config.Ports) int {
	if cfg.Banks > 1 {
		return cfg.Banks
	}
	return cfg.Count
}

// NewMemPort builds the port subsystem over a memory hierarchy. The machine
// configuration must already be validated.
func NewMemPort(cfg config.Ports, sys *mem.System) *MemPort {
	p := &MemPort{
		cfg:       cfg,
		sys:       sys,
		lbs:       NewLineBufferSet(cfg.LineBuffers, cfg.WidthBytes),
		sb:        NewStoreBuffer(cfg.StoreBufferEntries, cfg.WidthBytes, cfg.StoreCombining),
		wide:      cfg.WidthBytes > 8,
		grantHist: stats.NewHistogram(SlotsPerCycle(cfg) + 1),
		refillDue: NeverEvent,
	}
	if cfg.Banks > 1 {
		p.banked = true
		p.bankBusy = make([]bool, cfg.Banks)
		p.bankDebt = make([]int, cfg.Banks)
		p.bankMask = uint64(cfg.Banks - 1)
	}
	if cfg.PrefetchNextLine {
		p.prefetched = make(map[uint64]bool)
	}
	// A replaced or invalidated cache line must take its latched chunks
	// with it, or the line buffers would serve data the cache no longer
	// owns.
	sys.L1D.OnEvict = func(lineAddr uint64) {
		p.lbs.InvalidateLine(lineAddr, sys.L1D.Geom().LineBytes)
	}
	return p
}

// SetRecorder installs (or, with nil, removes) a flight recorder for
// port-side events.
func (p *MemPort) SetRecorder(rec *diag.Recorder) { p.rec = rec }

// Reset restores the port subsystem — grants, prefetch state, banking and
// refill debts, store buffer, line buffers, statistics — to its
// just-constructed state, reusing every backing structure. Part of the
// pooled-simulation path; the configuration (and the L1D eviction hook) is
// retained.
func (p *MemPort) Reset() {
	p.grants = 0
	p.pfHead, p.pfCount = 0, 0
	if p.prefetched != nil {
		clear(p.prefetched)
	}
	p.prefetches, p.usefulPrefetch = 0, 0
	for i := range p.bankBusy {
		p.bankBusy[i] = false
		p.bankDebt[i] = 0
	}
	p.bankConflicts = 0
	p.pendingRefills = p.pendingRefills[:0]
	p.refillDue = NeverEvent
	p.refillDebt = 0
	p.refillCycles = 0
	p.loadPortAccesses, p.storePortAccesses = 0, 0
	p.loadsBySource = [3]uint64{}
	p.rejects = [5]uint64{}
	p.cycles, p.busyGrants = 0, 0
	p.grantHist.Reset()
	p.lbs.Reset()
	p.sb.Reset()
	p.rec = nil
}

// LineBuffers exposes the load-all buffer set (statistics, tests).
func (p *MemPort) LineBuffers() *LineBufferSet { return p.lbs }

// StoreBuffer exposes the store buffer (statistics, tests).
func (p *MemPort) StoreBuffer() *StoreBuffer { return p.sb }

// BeginCycle starts a new cycle: port grants reset, arrived refills claim
// their array-write bandwidth, and completed store drains leave the buffer.
// Under the stores-first policy the store buffer drains here, ahead of the
// cycle's loads.
//
//portlint:hotpath
func (p *MemPort) BeginCycle(now uint64) {
	p.grants = 0
	p.cycles++
	// Refills whose data has arrived add to the port debt; the debt is
	// paid before any load or store may use the port (array writes cannot
	// be deferred indefinitely in this model).
	if p.refillDue <= now {
		kept := p.pendingRefills[:0]
		due := NeverEvent
		for _, r := range p.pendingRefills {
			if r.at <= now {
				if p.banked {
					p.bankDebt[r.bank] += r.cycles
				} else {
					p.refillDebt += r.cycles
				}
			} else {
				kept = append(kept, r)
				due = min(due, r.at)
			}
		}
		p.pendingRefills = kept
		p.refillDue = due
	}
	if p.banked {
		for i := range p.bankBusy {
			p.bankBusy[i] = false
			if p.bankDebt[i] > 0 {
				p.bankDebt[i]--
				p.bankBusy[i] = true
				p.grants++
				p.busyGrants++
				p.refillCycles++
			}
		}
	} else if p.refillDebt > 0 {
		pay := p.refillDebt
		if pay > p.cfg.Count {
			pay = p.cfg.Count
		}
		p.refillDebt -= pay
		p.grants += pay
		p.busyGrants += uint64(pay)
		p.refillCycles += uint64(pay)
	}
	p.sb.Expire(now)
	p.sb.SampleOccupancy()
	if p.cfg.StoresFirst {
		p.drainStores(now)
	}
}

// bankOf maps an address to its line-interleaved bank.
func (p *MemPort) bankOf(addr uint64) int {
	return int((addr / uint64(p.sys.L1D.Geom().LineBytes)) & p.bankMask)
}

// refillCost is the port-cycles one line movement costs.
func (p *MemPort) refillCost() int {
	lb := p.sys.L1D.Geom().LineBytes
	k := lb / p.cfg.FillBytesPerCycle
	if k < 1 {
		k = 1
	}
	return k
}

// noteMiss schedules the array-write occupancy of an accepted miss to addr.
func (p *MemPort) noteMiss(addr uint64, r mem.AccessResult) {
	if r.L1Hit || r.NoFill {
		return
	}
	k := p.refillCost()
	if r.EvictedDirty {
		k += p.refillCost() // victim read-out shares the array port
	}
	w := refillWindow{at: r.Ready, cycles: k}
	if p.banked {
		w.bank = p.bankOf(addr)
	}
	p.pendingRefills = append(p.pendingRefills, w) //portlint:ignore hotpathclosure bounded by outstanding MSHR fills; BeginCycle drains via pendingRefills[:0], so the backing array stops growing at its high-water mark
	p.refillDue = min(p.refillDue, w.at)
}

// portFree reports whether any access slot remains this cycle (for banked
// configurations, whether any bank is still idle).
func (p *MemPort) portFree() bool {
	if p.banked {
		for _, busy := range p.bankBusy {
			if !busy {
				return true
			}
		}
		return false
	}
	return p.grants < p.cfg.Count
}

// claimSlot takes the access slot for addr: a port, or the address's bank.
// It reports whether one was available; on refusal it classifies the reject.
func (p *MemPort) claimSlot(addr uint64) (ok bool, reason RejectReason) {
	if p.banked {
		b := p.bankOf(addr)
		if p.bankBusy[b] {
			return false, RejectBankConflict
		}
		p.bankBusy[b] = true
		p.grants++
		p.busyGrants++
		return true, RejectNone
	}
	if p.grants >= p.cfg.Count {
		return false, RejectPortBusy
	}
	p.grants++
	p.busyGrants++
	return true, RejectNone
}

// releaseSlot undoes a claimSlot when the access was refused downstream
// (MSHRs full): the tag probe consumed the slot speculatively but the model
// lets the caller retry without losing the cycle's slot.
func (p *MemPort) releaseSlot(addr uint64) {
	if p.banked {
		p.bankBusy[p.bankOf(addr)] = false
	}
	p.grants--
	p.busyGrants--
}

// TryLoad offers a load to the memory system at cycle now. In order it
// checks the store buffer (forward or conflict), the load-all line buffers,
// and finally the cache through a port grant. On a wide-port cache access
// the full aligned chunk is latched into a line buffer ("load-all").
//
//portlint:hotpath
func (p *MemPort) TryLoad(now, addr uint64, size int) LoadResult {
	if fwd, conflict := p.sb.Probe(addr, size); conflict {
		p.rejects[RejectStoreConflict]++
		return LoadResult{}
	} else if fwd {
		p.loadsBySource[SourceStoreBuffer]++
		return LoadResult{Accepted: true, Ready: now + 1, Source: SourceStoreBuffer}
	}
	if readyAt, hit := p.lbs.Lookup(addr); hit {
		ready := now + 1
		if readyAt > ready {
			ready = readyAt
		}
		p.loadsBySource[SourceLineBuffer]++
		return LoadResult{Accepted: true, Ready: ready, Source: SourceLineBuffer}
	}
	ok, reason := p.claimSlot(addr)
	if !ok {
		p.rejects[reason]++
		return LoadResult{}
	}
	r := p.sys.DataAccess(now, addr, false)
	if !r.Accepted {
		p.releaseSlot(addr)
		p.rejects[RejectMSHR]++
		return LoadResult{}
	}
	p.loadPortAccesses++
	p.loadsBySource[SourceCache]++
	p.noteMiss(addr, r)
	if p.cfg.PrefetchNextLine {
		line := p.sys.L1D.LineAddr(addr)
		if r.L1Hit {
			if p.prefetched[line] {
				p.usefulPrefetch++
				delete(p.prefetched, line)
			}
		} else {
			lb := uint64(p.sys.L1D.Geom().LineBytes)
			for d := 1; d <= p.cfg.PrefetchDegree; d++ {
				p.enqueuePrefetch(line + uint64(d)*lb)
			}
		}
	}
	if p.wide && p.lbs.Size() > 0 {
		// Load-all: the port read returned the whole aligned chunk;
		// latch it so spatially local loads skip the port.
		p.lbs.Fill(addr, r.Ready)
	}
	return LoadResult{Accepted: true, Ready: r.Ready, Source: SourceCache}
}

// TryCommitStore offers a committing store to the store buffer at cycle
// now. It returns false when the buffer cannot accept it, in which case the
// core must stall commit and retry — the back-pressure path that makes
// buffer depth matter. Stores invalidate any line buffer latching their
// chunk; the latched copy is stale the moment the store is architecturally
// performed.
//
//portlint:hotpath
func (p *MemPort) TryCommitStore(now, addr uint64, size int) bool {
	if !p.sb.CanAccept(addr, size) {
		return false
	}
	p.sb.Insert(now, addr, size, nil)
	if p.cfg.StoresCheckLineBuffers {
		p.lbs.InvalidateChunk(addr)
	}
	return true
}

// EndCycle drains the store buffer into whatever port slots the cycle's
// loads left unused (loads have priority, as in the paper — unless
// StoresFirst already drained at BeginCycle), then spends any remaining
// slots on queued prefetches.
//
//portlint:hotpath
func (p *MemPort) EndCycle(now uint64) {
	if !p.cfg.StoresFirst {
		p.drainStores(now)
	}
	if p.cfg.PrefetchNextLine {
		p.issuePrefetches(now)
	}
}

// drainStores issues store-buffer entries into free slots. Each drained
// entry performs one wide write covering every combined store in it. With
// combining enabled, a young entry in a lightly loaded buffer is held open
// so subsequent stores can merge into it; it drains once the buffer passes
// quarter occupancy or the entry ages out.
//
//portlint:hotpath
func (p *MemPort) drainStores(now uint64) {
	if p.cfg.FaultStuckDrain {
		return // injected fault: the drain path is wedged shut
	}
	for p.portFree() {
		i := p.sb.NextDrain()
		if i < 0 {
			return
		}
		if p.sb.HoldActive(i, now) {
			return
		}
		chunk := p.sb.ChunkAddrAt(i)
		if ok, _ := p.claimSlot(chunk); !ok {
			// Banked: this drain's bank is busy; a younger entry may
			// target another bank, but draining out of order would
			// complicate ordering for little gain — retry next cycle.
			return
		}
		r := p.sys.DataAccess(now, chunk, true)
		if !r.Accepted {
			p.releaseSlot(chunk)
			return // MSHRs exhausted; retry next cycle
		}
		p.storePortAccesses++
		p.noteMiss(chunk, r)
		p.sb.MarkIssued(i, r.Ready)
		if p.rec != nil {
			p.rec.Record(now, diag.EventDrain, p.sb.SeqAt(i), chunk)
		}
	}
}

// maxPrefetchQueue bounds the prefetch candidate queue.
const maxPrefetchQueue = 16

// enqueuePrefetch records a candidate line, deduplicating against the
// queue's recent content cheaply via the prefetched set.
//
//portlint:hotpath
func (p *MemPort) enqueuePrefetch(lineAddr uint64) {
	if p.pfCount >= maxPrefetchQueue {
		return
	}
	i := p.pfHead + p.pfCount
	if i >= maxPrefetchQueue {
		i -= maxPrefetchQueue
	}
	p.prefetchQueue[i] = lineAddr
	p.pfCount++
}

// issuePrefetches spends whatever slots remain after loads, store drains
// and refills on queued prefetch lines.
//
//portlint:hotpath
func (p *MemPort) issuePrefetches(now uint64) {
	for p.pfCount > 0 && p.portFree() {
		line := p.prefetchQueue[p.pfHead]
		p.pfHead++
		if p.pfHead == maxPrefetchQueue {
			p.pfHead = 0
		}
		p.pfCount--
		if p.sys.L1D.Contains(line) {
			continue // already resident: drop without spending a slot
		}
		if ok, _ := p.claimSlot(line); !ok {
			return
		}
		r := p.sys.DataAccess(now, line, false)
		if !r.Accepted {
			p.releaseSlot(line)
			return
		}
		p.prefetches++
		p.noteMiss(line, r)
		// Bound the usefulness-tracking set; losing old entries only
		// undercounts usefulness.
		if len(p.prefetched) > 4096 {
			clear(p.prefetched)
		}
		p.prefetched[line] = true
	}
}

// FinishCycle records end-of-cycle statistics. Call after EndCycle.
func (p *MemPort) FinishCycle() {
	p.grantHist.Observe(uint64(p.grants))
}

// PendingStores reports the store-buffer occupancy (entries not yet
// completed), used by the core's drain logic at end of simulation.
func (p *MemPort) PendingStores() int { return p.sb.Len() }

// DrainAll forces the remaining store-buffer contents out, advancing time as
// needed, and returns the cycle the last write completes. Used at the end of
// a simulation so every committed store is accounted.
func (p *MemPort) DrainAll(now uint64) uint64 {
	if p.cfg.FaultStuckDrain {
		// The injected wedge would make this loop spin forever; the
		// un-drained stores are exactly the failure under study.
		return now
	}
	last := now
	for p.sb.Len() > 0 {
		p.BeginCycle(now)
		p.EndCycle(now)
		p.FinishCycle()
		if d := p.sb.LatestDrainDone(); d > last {
			last = d
		}
		now++
	}
	return last
}

// Report writes the port subsystem's statistics into a stats.Set under the
// "port." prefix.
func (p *MemPort) Report(s *stats.Set) {
	s.Add(stats.PortCycles, p.cycles)
	s.Add(stats.PortGrants, p.busyGrants)
	s.Add(stats.PortLoadAccesses, p.loadPortAccesses)
	s.Add(stats.PortStoreAccesses, p.storePortAccesses)
	s.Add(stats.PortLoadsFromCache, p.loadsBySource[SourceCache])
	s.Add(stats.PortLoadsFromLineBuffer, p.loadsBySource[SourceLineBuffer])
	s.Add(stats.PortLoadsFromStoreBuffer, p.loadsBySource[SourceStoreBuffer])
	s.Add(stats.PortRejectPortBusy, p.rejects[RejectPortBusy])
	s.Add(stats.PortRejectMSHR, p.rejects[RejectMSHR])
	s.Add(stats.PortRejectStoreConflict, p.rejects[RejectStoreConflict])
	s.Add(stats.PortRejectBankConflict, p.rejects[RejectBankConflict])
	s.Add(stats.PortSBInserts, p.sb.Inserts())
	s.Add(stats.PortSBCombined, p.sb.Combined())
	s.Add(stats.PortSBDrains, p.sb.Drains())
	s.Add(stats.PortSBForwards, p.sb.Forwards())
	s.Add(stats.PortLBHits, p.lbs.Hits())
	s.Add(stats.PortLBFills, p.lbs.Fills())
	s.Add(stats.PortLBInvalidations, p.lbs.Invalidations())
	s.Add(stats.PortRefillCycles, p.refillCycles)
	s.Add(stats.PortPrefetches, p.prefetches)
	s.Add(stats.PortUsefulPrefetches, p.usefulPrefetch)
	for v := 0; v <= SlotsPerCycle(p.cfg); v++ {
		s.Add(stats.GrantBucket(v), p.grantHist.Bucket(uint64(v)))
	}
}

// Utilisation returns the mean fraction of access slots (ports or banks)
// granted per cycle.
func (p *MemPort) Utilisation() float64 {
	slots := uint64(SlotsPerCycle(p.cfg))
	if p.cycles == 0 || slots == 0 {
		return 0
	}
	return float64(p.busyGrants) / float64(p.cycles*slots)
}

// GrantHistogram returns the per-cycle grant-count histogram.
func (p *MemPort) GrantHistogram() *stats.Histogram { return p.grantHist }

// LoadsBySource returns the counts of loads satisfied by each source.
func (p *MemPort) LoadsBySource() (cache, lineBuffer, storeBuffer uint64) {
	return p.loadsBySource[SourceCache], p.loadsBySource[SourceLineBuffer], p.loadsBySource[SourceStoreBuffer]
}

// Rejects returns the rejection counts by reason.
func (p *MemPort) Rejects() (portBusy, mshr, storeConflict uint64) {
	return p.rejects[RejectPortBusy], p.rejects[RejectMSHR], p.rejects[RejectStoreConflict]
}

// BankConflicts returns the number of accesses refused because their bank
// was busy (banked configurations only).
func (p *MemPort) BankConflicts() uint64 { return p.rejects[RejectBankConflict] }

// RejectBreakdown returns the cumulative refusal counters split the way
// the cycle-accounting layer attributes them: MSHR exhaustion (a
// memory-system limit) versus every structural port refusal (port busy,
// bank conflict, overlapping buffered store). Reading two words per cycle
// keeps the armed accounting path allocation-free.
//
//portlint:hotpath
func (p *MemPort) RejectBreakdown() (mshr, structural uint64) {
	return p.rejects[RejectMSHR],
		p.rejects[RejectPortBusy] + p.rejects[RejectBankConflict] + p.rejects[RejectStoreConflict]
}
