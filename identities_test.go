package portsim_test

import (
	"testing"

	"portsim"
	"portsim/internal/isa"
	"portsim/internal/stats"
	"portsim/internal/workload"
)

// mappedStream applies fn to every instruction of a workload generator.
type mappedStream struct {
	inner *workload.Generator
	fn    func(*isa.Inst)
}

func (s *mappedStream) NextBatch(dst []isa.Inst) int {
	n := s.inner.NextBatch(dst)
	for i := range dst[:n] {
		s.fn(&dst[i])
	}
	return n
}

// shiftAddrs moves every data address by d.
func shiftAddrs(d uint64) func(*isa.Inst) {
	return func(in *isa.Inst) {
		if in.Class.IsMem() {
			in.Addr += d
		}
	}
}

// shiftPCs moves every PC and control target by d.
func shiftPCs(d uint64) func(*isa.Inst) {
	return func(in *isa.Inst) {
		in.PC += d
		if in.Class.IsCtrl() {
			in.Target += d
		}
	}
}

// reverseRegs renames architectural registers by a bijection within each
// file: integer registers 1–31 and FP registers 32–63 are reversed, and the
// zero register stays.
func reverseRegs(in *isa.Inst) {
	flip := func(r isa.Reg) isa.Reg {
		switch {
		case r == isa.RegZero:
			return r
		case r < isa.FPBase:
			return isa.FPBase - r
		default:
			return isa.FPBase + isa.NumArchRegs - 1 - r
		}
	}
	in.Dest, in.Src1, in.Src2 = flip(in.Dest), flip(in.Src1), flip(in.Src2)
}

// identityMachines are the presets plus the campaign's other machine kinds:
// A3's next-line prefetch on the baseline and best-single machines, A4's
// speculative loads, A5's write-through L1D, A7's stores-first arbitration
// and A8's wrong-path fetch.
func identityMachines() []portsim.Config {
	var ms []portsim.Config
	for _, name := range portsim.ConfigNames() {
		cfg, _ := portsim.ConfigByName(name)
		ms = append(ms, cfg)
	}
	variant := func(m portsim.Config, kind string, set func(*portsim.Config)) portsim.Config {
		m.Name += "+" + kind
		set(&m)
		return m
	}
	prefetch := func(m *portsim.Config) { m.Ports.PrefetchNextLine, m.Ports.PrefetchDegree = true, 1 }
	return append(ms,
		variant(portsim.BaselineConfig(), "prefetch", prefetch),
		variant(portsim.BestSingleConfig(), "prefetch", prefetch),
		variant(portsim.BaselineConfig(), "mem-speculation", func(m *portsim.Config) {
			m.Core.SpeculativeLoads, m.Core.ViolationPenalty = true, 8
		}),
		variant(portsim.BaselineConfig(), "write-through", func(m *portsim.Config) { m.L1D.WriteThrough = true }),
		variant(portsim.BaselineConfig(), "stores-first", func(m *portsim.Config) { m.Ports.StoresFirst = true }),
		variant(portsim.BaselineConfig(), "wrong-path-fetch", func(m *portsim.Config) { m.Core.WrongPathFetch = true }),
	)
}

// TestModelIdentities runs metamorphic relations over the timing model:
// transformations of the instruction stream that it must not notice.
// Shifting data addresses (by 2^40, 2^63, or 1 MiB, a multiple of the L2's
// set span) or PCs and control targets (by 2^40 or 2^63), or renaming
// registers within their files, must leave the cycle count and every
// counter unchanged; clearing every Kernel flag may move only the
// user/kernel instruction split. It checks every machine of
// identityMachines. A model that special-cases address ranges,
// converts addresses to signed integers or keys a structure by register
// number breaks one of them.
func TestModelIdentities(t *testing.T) {
	const insts = 10_000
	userOnly := map[string]bool{stats.InstsUser: true, stats.InstsKernel: true}
	relations := []struct {
		name  string
		fn    func(*isa.Inst)
		moves map[string]bool // counters the relation may change
	}{
		{"addr+2^40", shiftAddrs(1 << 40), nil},
		{"addr+2^63", shiftAddrs(1 << 63), nil},
		{"addr+1MiB", shiftAddrs(1 << 20), nil},
		{"pc+2^40", shiftPCs(1 << 40), nil},
		{"pc+2^63", shiftPCs(1 << 63), nil},
		{"regs-reversed", reverseRegs, nil},
		{"user-mode", func(in *isa.Inst) { in.Kernel = false }, userOnly},
	}
	run := func(cfg portsim.Config, w string, fn func(*isa.Inst)) *portsim.Result {
		t.Helper()
		prof, _ := workload.ByName(w)
		gen, err := workload.New(prof, 42)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := portsim.NewFromStream(cfg, &mappedStream{inner: gen, fn: fn})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(insts)
		if err != nil {
			t.Fatalf("%s on %s: %v", w, cfg.Name, err)
		}
		return res
	}
	kernelMoved := false
	for _, cfg := range identityMachines() {
		name := cfg.Name
		for _, w := range []string{"compress", "database", "mp3d"} {
			base := run(cfg, w, func(*isa.Inst) {})
			for _, rel := range relations {
				got := run(cfg, w, rel.fn)
				if got.Cycles != base.Cycles {
					t.Errorf("%s on %s, %s: %d cycles, %d untransformed", w, name, rel.name, got.Cycles, base.Cycles)
				}
				for _, c := range base.Counters.Names() {
					b, g := base.Counters.Get(c), got.Counters.Get(c)
					if b != g && !rel.moves[c] {
						t.Errorf("%s on %s, %s: %s = %d, %d untransformed", w, name, rel.name, c, g, b)
					}
				}
				if len(got.Counters.Names()) != len(base.Counters.Names()) {
					t.Errorf("%s on %s, %s: %d counters, %d untransformed", w, name, rel.name,
						len(got.Counters.Names()), len(base.Counters.Names()))
				}
				if rel.moves != nil && got.KernelInsts != base.KernelInsts {
					kernelMoved = true
				}
			}
		}
	}
	if !kernelMoved {
		t.Error("no workload ran kernel instructions; the user-mode relation holds vacuously")
	}
}
