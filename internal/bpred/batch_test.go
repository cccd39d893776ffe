package bpred

import (
	"testing"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/workload"
)

// predictScalar is the reference for PredictGroup: the per-class predictor
// switch run on one control instruction at a time, with the RAS pushing
// the instruction's fall-through.
func predictScalar(u *Unit, in *isa.Inst) (mispredicted, serialize bool) {
	switch in.Class {
	case isa.Branch:
		predTaken := u.Dir.Predict(in.PC)
		if predTaken != in.Taken {
			mispredicted = true
		} else if in.Taken {
			// Direction right, but fetch can only redirect with a
			// target from the BTB.
			tgt, ok := u.BTB.Lookup(in.PC)
			if !ok || tgt != in.Target {
				mispredicted = true
			}
		}
		u.Dir.Update(in.PC, in.Taken)
		if in.Taken {
			u.BTB.Insert(in.PC, in.Target)
		}
	case isa.Jump:
		tgt, ok := u.BTB.Lookup(in.PC)
		if !ok || tgt != in.Target {
			mispredicted = true
		}
		u.BTB.Insert(in.PC, in.Target)
	case isa.Call:
		tgt, ok := u.BTB.Lookup(in.PC)
		if !ok || tgt != in.Target {
			mispredicted = true
		}
		u.BTB.Insert(in.PC, in.Target)
		u.RAS.Push(in.FallThrough())
	case isa.Return:
		tgt, ok := u.RAS.Pop()
		if !ok || tgt != in.Target {
			mispredicted = true
		}
	case isa.Syscall:
		serialize = true
	}
	return mispredicted, serialize
}

// TestPredictGroupMatchesScalar feeds every profile's control instructions
// to PredictGroup in groups of several widths, and the same instructions
// one by one to predictScalar on a twin Unit. Each processed op's outcome
// flags must equal the reference's, and the returned count must be one
// past the first mispredicted or serialising op, or the group length when
// there is none. The twins see the same operation sequence only if both
// hold, so a divergence in predictor state shows up in later flags.
func TestPredictGroupMatchesScalar(t *testing.T) {
	const insts = 50_000
	cfg := config.Baseline().Pred
	for _, name := range workload.Names() {
		prof, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %q vanished", name)
		}
		gen, err := workload.New(prof, 42)
		if err != nil {
			t.Fatal(err)
		}
		var ctrl []isa.Inst
		var in isa.Inst
		for i := 0; i < insts && gen.Next(&in); i++ {
			if in.Class.IsCtrl() {
				ctrl = append(ctrl, in)
			}
		}
		for _, width := range []int{1, 2, 3, 4, 8} {
			group, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ops := make([]Op, 0, width)
			for i := 0; i < len(ctrl); {
				ops = ops[:0]
				for _, in := range ctrl[i:min(i+width, len(ctrl))] {
					ops = append(ops, Op{PC: in.PC, Target: in.Target, Class: in.Class, Taken: in.Taken})
				}
				got := group.PredictGroup(ops)
				want := len(ops)
				for j := range ops {
					mis, ser := predictScalar(ref, &ctrl[i+j])
					if j < got && (ops[j].Mispredicted != mis || ops[j].Serialize != ser) {
						t.Fatalf("%s width %d: op %d (%v at %#x): mispredicted/serialize = %v/%v, want %v/%v",
							name, width, i+j, ops[j].Class, ops[j].PC, ops[j].Mispredicted, ops[j].Serialize, mis, ser)
					}
					if mis || ser {
						want = j + 1
						break
					}
				}
				if got != want {
					t.Fatalf("%s width %d: PredictGroup over ops %d.. returned %d, want %d", name, width, i, got, want)
				}
				i += got
			}
		}
	}
}
