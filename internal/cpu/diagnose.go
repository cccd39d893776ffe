package cpu

import (
	"fmt"
	"strings"

	"portsim/internal/isa"
)

// StallDiagnosis classifies why the machine is not committing, from live
// pipeline and port state. It is called when the forward-progress watchdog
// or the deadline guard fires, so the report names the wedged resource
// (store buffer, line buffers, port arbitration, instruction stream)
// instead of leaving a bare timeout. It is also safe to call on a healthy
// core, where it simply describes the reorder-buffer head.
func (c *Core) StallDiagnosis() string {
	if c.robCount == 0 {
		switch {
		case c.streamDone && c.fbCount == 0:
			return "stream stall: reorder buffer empty and the instruction stream ended"
		case c.stallSeq != 0:
			return fmt.Sprintf("fetch stall: reorder buffer empty, fetch blocked on unresolved control instruction seq %d", c.stallSeq)
		case c.cycle < c.fetchBlockedTil:
			return fmt.Sprintf("fetch stall: reorder buffer empty, fetch blocked until cycle %d", c.fetchBlockedTil)
		default:
			return "stream stall: reorder buffer empty with no fetch block; the instruction stream is not delivering"
		}
	}

	e := &c.rob[c.robHead]
	head := fmt.Sprintf("ROB head seq %d (%s, %d/%d entries occupied)",
		e.seq, e.inst.Class, c.robCount, len(c.rob))
	sb := c.port.StoreBuffer()
	lbs := c.port.LineBuffers()

	var b strings.Builder
	switch {
	case e.state == stateDone && e.inst.Class == isa.Store &&
		!sb.CanAccept(e.inst.Addr, int(e.inst.Size)):
		fmt.Fprintf(&b, "store buffer full: %s cannot commit; %d/%d entries occupied and not draining",
			head, sb.Len(), sb.Cap())
	case e.state == stateIssued && e.doneAt == never:
		fmt.Fprintf(&b, "store data starvation: %s issued its address but its data producer never scheduled", head)
	case e.state == stateDispatched && (e.inst.Class == isa.Load || e.inst.Class == isa.Store):
		fmt.Fprintf(&b, "port starvation: %s cannot issue its memory access", head)
	case e.state == stateDispatched:
		fmt.Fprintf(&b, "issue starvation: %s never issued (operand or functional-unit wait)", head)
	case e.doneAt > c.cycle && e.doneAt != never:
		fmt.Fprintf(&b, "in-flight wait: %s completes at cycle %d", head, e.doneAt)
	default:
		fmt.Fprintf(&b, "unclassified: %s state=%d doneAt=%d", head, e.state, e.doneAt)
	}

	portBusy, mshr, storeConflict := c.port.Rejects()
	fmt.Fprintf(&b, "; load rejects: port-busy=%d mshr=%d store-conflict=%d bank-conflict=%d",
		portBusy, mshr, storeConflict, c.port.BankConflicts())
	if lbs.Size() > 0 {
		if live := lbs.Live(); live == lbs.Size() {
			fmt.Fprintf(&b, "; all %d line buffers busy", lbs.Size())
		} else {
			fmt.Fprintf(&b, "; line buffers %d/%d live", live, lbs.Size())
		}
	}
	return b.String()
}
