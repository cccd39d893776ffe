package bpred

import "portsim/internal/isa"

// Op is one control instruction of a fetch group presented to PredictGroup:
// the trace coordinates the predictors need going in, and the prediction
// outcome coming out.
type Op struct {
	PC     uint64
	Target uint64
	Class  isa.Class
	Taken  bool

	// Outcome, filled by PredictGroup.
	Mispredicted bool
	Serialize    bool
}

// PredictGroup runs the front-end predictors over the control instructions
// of one fetch group, in program order, performing exactly the predictor
// reads and updates that repeated per-instruction prediction would: the
// direction predictor, the BTB (whose lookups bump LRU state, so even a
// hit mutates) and the RAS see the identical operation sequence. It stops
// after the first group-ending op — one that mispredicted or serialises —
// because the instructions behind it are not fetched this cycle and must
// not train. Returns the number of ops processed; only the last processed
// op can carry an outcome flag.
//
//portlint:hotpath
func (u *Unit) PredictGroup(ops []Op) int {
	for i := range ops {
		op := &ops[i]
		switch op.Class {
		case isa.Branch:
			predTaken := u.Dir.Predict(op.PC)
			if predTaken != op.Taken {
				op.Mispredicted = true
			} else if op.Taken {
				// Direction right, but fetch can only redirect with a
				// target from the BTB.
				tgt, ok := u.BTB.Lookup(op.PC)
				if !ok || tgt != op.Target {
					op.Mispredicted = true
				}
			}
			u.Dir.Update(op.PC, op.Taken)
			if op.Taken {
				u.BTB.Insert(op.PC, op.Target)
			}
		case isa.Jump:
			tgt, ok := u.BTB.Lookup(op.PC)
			if !ok || tgt != op.Target {
				op.Mispredicted = true
			}
			u.BTB.Insert(op.PC, op.Target)
		case isa.Call:
			tgt, ok := u.BTB.Lookup(op.PC)
			if !ok || tgt != op.Target {
				op.Mispredicted = true
			}
			u.BTB.Insert(op.PC, op.Target)
			u.RAS.Push(op.PC + 4)
		case isa.Return:
			tgt, ok := u.RAS.Pop()
			if !ok || tgt != op.Target {
				op.Mispredicted = true
			}
		case isa.Syscall:
			// Kernel entry serialises the pipeline.
			op.Serialize = true
		}
		if op.Mispredicted || op.Serialize {
			return i + 1
		}
	}
	return len(ops)
}
