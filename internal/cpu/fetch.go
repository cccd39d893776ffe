package cpu

import (
	"portsim/internal/bpred"
	"portsim/internal/diag"
	"portsim/internal/isa"
)

// fetch pulls up to FetchWidth instructions from the stream into the fetch
// buffer, modelling the instruction cache (one line per cycle) and the
// branch predictor. A predicted-taken control transfer ends the fetch group;
// a misprediction (or a serialising syscall) stalls fetch until the
// offending instruction resolves (or commits).
//
//portlint:hotpath
func (c *Core) fetch() {
	if c.stallSeq != 0 || c.cycle < c.fetchBlockedTil {
		c.fetchStallCycles++
		if c.stallSeq != 0 && !c.stallOnCommit && c.cfg.Core.WrongPathFetch && c.wrongPathPC != 0 {
			// The real front end keeps fetching down the predicted
			// (wrong) path until the branch resolves, polluting the
			// instruction cache. One line per stalled cycle.
			if r := c.sys.InstFetch(c.cycle, c.wrongPathPC); r.Accepted {
				c.wrongPathPC += uint64(c.cfg.L1I.LineBytes)
				c.wrongPathLines++
			}
		}
		return
	}
	c.wrongPathPC = 0
	lineMask := ^uint64(uint64(c.cfg.L1I.LineBytes) - 1)
	fetched := 0
	for fetched < c.cfg.Core.FetchWidth && c.fbCount < len(c.fetchBuf) {
		if c.limitReached() {
			return
		}
		// Peek at the next stream instruction in the chunk buffer; it is
		// consumed only once it enters the fetch buffer, so an instruction
		// held back at a line boundary starts the next group.
		if c.batchPos == c.batchLen {
			if c.streamDone {
				return
			}
			c.batchLen, c.batchPos = c.stream.NextBatch(c.batchBuf), 0
			if c.batchLen == 0 {
				c.streamDone = true
				return
			}
		}
		in := &c.batchBuf[c.batchPos]
		line := in.PC & lineMask
		if line != c.curFetchLine {
			if fetched > 0 {
				// One instruction line per cycle: the group ends
				// at the line boundary; the held instruction
				// starts the next group.
				return
			}
			r := c.sys.InstFetch(c.cycle, in.PC)
			if !r.Accepted {
				c.fetchBlockedTil = c.cycle + 1
				return
			}
			c.curFetchLine = line
			if r.Ready > c.cycle+uint64(c.cfg.L1I.HitLatency) {
				// Instruction-cache miss: deliver when the line
				// arrives.
				c.fetchBlockedTil = r.Ready
				return
			}
		}
		c.batchPos++
		c.seq++
		// Fill the fetch-buffer slot in place.
		i := c.fbHead + c.fbCount
		if n := len(c.fetchBuf); i >= n {
			i -= n
		}
		c.fbCount++
		f := &c.fetchBuf[i]
		f.inst = *in
		f.seq = c.seq
		f.mispredicted, f.serialize = false, false
		if in.Class.IsCtrl() {
			c.predict(f)
		}
		if c.rec != nil {
			c.rec.Record(c.cycle, diag.EventFetch, f.seq, in.PC)
		}
		fetched++
		if f.mispredicted || f.serialize {
			// Fetch stops until this instruction resolves (branch)
			// or commits (syscall).
			c.stallSeq = f.seq
			c.stallOnCommit = f.serialize
			if f.mispredicted && c.cfg.Core.WrongPathFetch {
				c.wrongPathPC = wrongPathStart(&f.inst)
			}
			return
		}
		if in.Redirects() {
			// Correctly predicted taken: the group ends; fetch
			// resumes at the target next cycle. Invalidate the
			// line tracker so the target line is fetched fresh.
			c.curFetchLine = ^uint64(0)
			return
		}
	}
}

// wrongPathStart picks the address the front end would (wrongly) have
// fetched from: the fall-through when the branch was actually taken, the
// stale target otherwise.
func wrongPathStart(in *isa.Inst) uint64 {
	if in.Redirects() {
		return in.FallThrough()
	}
	if in.Target != 0 {
		return in.Target
	}
	return in.FallThrough()
}

// predict runs the front-end predictors on a control instruction and marks
// it mispredicted when the machine could not have followed the trace's
// path. Predictor structures are trained here rather than at commit: fetch
// order equals program order in a trace-driven model (there is no wrong
// path), and training at fetch keeps gshare's global history exactly in
// step with the fetch stream — the behaviour of real hardware's
// speculatively updated, repair-on-mispredict history register.
func (c *Core) predict(f *fetchedInst) {
	in := &f.inst
	op := [1]bpred.Op{{PC: in.PC, Target: in.Target, Class: in.Class, Taken: in.Taken}}
	c.pred.PredictGroup(op[:])
	f.mispredicted = op[0].Mispredicted
	f.serialize = op[0].Serialize
}
