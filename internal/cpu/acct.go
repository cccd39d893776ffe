package cpu

import (
	"portsim/internal/cpustack"
	"portsim/internal/diag"
	"portsim/internal/isa"
)

// This file is the cycle-accounting layer: when Options.CPIStack arms a
// stack, every simulated cycle is attributed to exactly one cpustack
// bucket, and the bucket sum equals the cycle count exactly, serial or
// parallel. The discipline mirrors internal/diag: a nil stack costs the
// run one pointer test per cycle and nothing in step() itself, and an
// armed stack charges through preallocated atomic counters, so the
// AllocsPerRun proofs hold either way.
//
// Attribution precedence for a cycle (first match wins; DESIGN.md
// "CPI stacks" records the rationale):
//
//  1. an instruction committed                     → useful
//  2. the head store was refused by the buffer     → store-buffer-full
//  3. a ready load was refused for MSHR pressure   → mem.mshr-full
//  4. a ready load was refused structurally        → issue.port-reject
//  5. head issued, memory op, DRAM channel busy    → mem.dram-bandwidth
//  6. head issued, memory op, channel idle         → mem.fill-wait
//  7. head issued or queued on the muldiv unit     → issue.divider
//  8. head issued, short-latency op in flight      → commit-stall
//  9. head dispatched, operands not ready          → issue.operand-wait
// 10. reorder buffer empty                         → fetch-starved
//
// The end-of-run store-buffer drain, which runs after the last stepped
// cycle, is charged whole to store-buffer-full (see Run).

// acctSnap is the pre-step counter snapshot classifyStepped diffs against.
type acctSnap struct {
	committed     uint64
	commitStallSB uint64
	rejMSHR       uint64
	rejStruct     uint64
}

// acctBegin snapshots the commit and rejection counters before a stepped
// cycle. Only called when accounting is armed.
//
//portlint:hotpath
func (c *Core) acctBegin(s *acctSnap) {
	s.committed = c.committed
	s.commitStallSB = c.commitStallSB
	s.rejMSHR, s.rejStruct = c.port.RejectBreakdown()
}

// acctStep classifies the cycle just stepped (the one that ended at
// c.cycle-1) against the pre-step snapshot and charges one cycle. When a
// recorder is armed it also emits an EventCPI on every bucket transition,
// which is what BuildTrace turns into Perfetto counter tracks.
//
//portlint:hotpath
func (c *Core) acctStep(s *acctSnap) {
	b := c.classifyStepped(s)
	c.acct.Charge(b, 1)
	if c.rec != nil && b != c.lastBucket {
		c.lastBucket = b
		c.rec.Record(c.cycle-1, diag.EventCPI, uint64(b), 0)
	}
}

// classifyStepped applies the stepped-cycle precedence order.
//
//portlint:hotpath
func (c *Core) classifyStepped(s *acctSnap) cpustack.Bucket {
	if c.committed != s.committed {
		return cpustack.Useful
	}
	if c.commitStallSB != s.commitStallSB {
		return cpustack.StoreBufferFull
	}
	mshr, structural := c.port.RejectBreakdown()
	if mshr != s.rejMSHR {
		return cpustack.MemMSHRFull
	}
	if structural != s.rejStruct {
		return cpustack.IssuePortReject
	}
	return c.classifyHead(c.cycle - 1)
}

// classifyHead attributes a commit-free cycle by the state of the oldest
// in-flight instruction at cycle t — the instruction the whole machine is
// ultimately waiting on.
//
//portlint:hotpath
func (c *Core) classifyHead(t uint64) cpustack.Bucket {
	if c.robCount == 0 {
		return cpustack.FetchStarved
	}
	h := &c.rob[c.robHead]
	switch h.state {
	case stateIssued:
		switch h.inst.Class {
		case isa.Load, isa.Store:
			if c.sys.DRAMBusy(t) {
				return cpustack.MemDRAMBandwidth
			}
			return cpustack.MemFillWait
		case isa.IntMul, isa.IntDiv, isa.FPMul, isa.FPDiv:
			return cpustack.IssueDivider
		default:
			return cpustack.CommitStall
		}
	case stateDone:
		// commit() ran before complete() promoted the head, so the retire
		// happens next cycle: completion-to-commit latency. (A done store
		// refused by the buffer was already attributed via the
		// commit-stall counter delta.)
		return cpustack.CommitStall
	default: // stateDispatched
		if c.muldivQueued(h, t) {
			return cpustack.IssueDivider
		}
		return cpustack.IssueOperandWait
	}
}

// muldivQueued reports whether a dispatched head needs the unpipelined
// multiply/divide unit while it is busy at cycle t — queued behind the
// divider rather than waiting on operands.
//
//portlint:hotpath
func (c *Core) muldivQueued(h *robEntry, t uint64) bool {
	switch h.inst.Class {
	case isa.IntMul, isa.IntDiv:
		return t < c.intDivFreeAt
	case isa.FPMul, isa.FPDiv:
		return t < c.fpDivFreeAt
	}
	return false
}
