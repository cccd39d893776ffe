package workload

import (
	"testing"

	"portsim/internal/isa"
)

func TestAllProfilesValidate(t *testing.T) {
	for _, p := range Profiles() {
		if err := p.Validate(); err != nil {
			t.Errorf("profile %s: %v", p.Name, err)
		}
	}
	if len(Profiles()) != 7 {
		t.Errorf("expected 7 workloads, have %d", len(Profiles()))
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		p, ok := ByName(name)
		if !ok || p.Name != name {
			t.Errorf("ByName(%q) failed", name)
		}
	}
	if _, ok := ByName("nonexistent"); ok {
		t.Error("ByName of unknown workload succeeded")
	}
}

func TestValidateRejects(t *testing.T) {
	base, _ := ByName("compress")
	cases := []struct {
		name string
		f    func(*Profile)
	}{
		{"empty name", func(p *Profile) { p.Name = "" }},
		{"mix over 1", func(p *Profile) { p.Mix.Load = 0.9; p.Mix.Store = 0.9 }},
		{"memory mix without regions", func(p *Profile) { p.Regions = nil }},
		{"zero weight region", func(p *Profile) { p.Regions[0].Weight = 0 }},
		{"tiny region", func(p *Profile) { p.Regions[0].Size = 32 }},
		{"misaligned base", func(p *Profile) { p.Regions[0].Base = 3 }},
		{"sequential without stride", func(p *Profile) { p.Regions[0].StrideBytes = 0 }},
		{"odd stride", func(p *Profile) { p.Regions[0].StrideBytes = 12 }},
		{"negative run", func(p *Profile) { p.Regions[0].Run = -1 }},
		{"no code", func(p *Profile) { p.CodeBlocks = 0 }},
		{"short blocks", func(p *Profile) { p.MeanBlockLen = 1 }},
		{"size fracs", func(p *Profile) { p.Size8Frac = 0.8; p.Size1Frac = 0.8 }},
		{"kernel without length", func(p *Profile) { p.Kernel.LengthMean = 0 }},
		{"kernel mix without regions", func(p *Profile) { p.Kernel.Regions = nil }},
		{"kernel code layout", func(p *Profile) { p.Kernel.CodeBlocks = 0 }},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			p := base
			p.Regions = append([]Region(nil), base.Regions...)
			tt.f(&p)
			if err := p.Validate(); err == nil {
				t.Error("invalid profile accepted")
			}
		})
	}
}

func TestPatternString(t *testing.T) {
	for p, want := range map[Pattern]string{
		Sequential: "sequential", Strided: "strided", Random: "random",
		Chase: "chase", Stack: "stack",
	} {
		if p.String() != want {
			t.Errorf("%d.String() = %q", p, p.String())
		}
	}
	if Pattern(99).String() == "" {
		t.Error("unknown pattern renders empty")
	}
}

// drive pulls n instructions from a fresh generator.
func drive(t *testing.T, name string, seed int64, n int) []isa.Inst {
	t.Helper()
	p, ok := ByName(name)
	if !ok {
		t.Fatalf("unknown workload %s", name)
	}
	g, err := New(p, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]isa.Inst, n)
	g.NextBatch(out)
	return out
}

func TestGeneratorInstructionsValid(t *testing.T) {
	for _, name := range Names() {
		insts := drive(t, name, 1, 20000)
		for i := range insts {
			if err := insts[i].Validate(); err != nil {
				t.Fatalf("%s inst %d invalid: %v (%v)", name, i, err, insts[i])
			}
		}
	}
}

func TestGeneratorPCChain(t *testing.T) {
	// DESIGN.md invariant: each instruction's NextPC is the PC of the
	// next instruction — the stream is a coherent control-flow walk.
	for _, name := range Names() {
		insts := drive(t, name, 2, 50000)
		for i := 0; i+1 < len(insts); i++ {
			if got := insts[i].NextPC(); got != insts[i+1].PC {
				t.Fatalf("%s: inst %d (%v) NextPC %#x but next PC is %#x",
					name, i, insts[i].Class, got, insts[i+1].PC)
			}
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, name := range Names() {
		a := drive(t, name, 42, 10000)
		b := drive(t, name, 42, 10000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: divergence at %d with equal seeds", name, i)
			}
		}
		c := drive(t, name, 43, 10000)
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		if same {
			t.Errorf("%s: different seeds produced identical streams", name)
		}
	}
}

func TestGeneratorAddressesInRegions(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		insts := drive(t, name, 3, 30000)
		inAnyRegion := func(addr uint64, size uint8, kernel bool) bool {
			regs := p.Regions
			if kernel {
				regs = p.Kernel.Regions
			}
			for _, r := range regs {
				if addr >= r.Base && addr+uint64(size) <= r.Base+r.Size {
					return true
				}
			}
			return false
		}
		for i := range insts {
			in := &insts[i]
			if !in.Class.IsMem() {
				continue
			}
			if !inAnyRegion(in.Addr, in.Size, in.Kernel) {
				t.Fatalf("%s: access %#x/%d (kernel=%v) outside all regions",
					name, in.Addr, in.Size, in.Kernel)
			}
		}
	}
}

func TestGeneratorMixRoughlyHonoured(t *testing.T) {
	for _, name := range Names() {
		p, _ := ByName(name)
		insts := drive(t, name, 4, 100000)
		var loads, stores, userInsts int
		for i := range insts {
			if insts[i].Kernel {
				continue
			}
			userInsts++
			switch insts[i].Class {
			case isa.Load:
				loads++
			case isa.Store:
				stores++
			}
		}
		lf := float64(loads) / float64(userInsts)
		sf := float64(stores) / float64(userInsts)
		// Terminators dilute the body mix by roughly 1/MeanBlockLen;
		// allow a generous band.
		if lf < p.Mix.Load*0.6 || lf > p.Mix.Load*1.2 {
			t.Errorf("%s: load fraction %.3f far from mix %.3f", name, lf, p.Mix.Load)
		}
		if sf < p.Mix.Store*0.6 || sf > p.Mix.Store*1.2 {
			t.Errorf("%s: store fraction %.3f far from mix %.3f", name, sf, p.Mix.Store)
		}
	}
}

func TestGeneratorKernelFraction(t *testing.T) {
	// database and pmake are configured OS-heavy; eqntott is not. The
	// generated kernel fractions must reflect that ordering.
	frac := func(name string) float64 {
		insts := drive(t, name, 5, 200000)
		k := 0
		for i := range insts {
			if insts[i].Kernel {
				k++
			}
		}
		return float64(k) / float64(len(insts))
	}
	db, pm, eq := frac("database"), frac("pmake"), frac("eqntott")
	if db < 0.08 {
		t.Errorf("database kernel fraction %.3f too low", db)
	}
	if pm < 0.2 {
		t.Errorf("pmake kernel fraction %.3f too low", pm)
	}
	if eq > 0.08 {
		t.Errorf("eqntott kernel fraction %.3f too high", eq)
	}
	if !(pm > db && db > eq) {
		t.Errorf("kernel-intensity ordering wrong: pmake=%.3f database=%.3f eqntott=%.3f", pm, db, eq)
	}
}

func TestGeneratorKernelUsesOwnFootprint(t *testing.T) {
	insts := drive(t, "pmake", 6, 200000)
	sawKernelMem, sawUserMem := false, false
	for i := range insts {
		in := &insts[i]
		if !in.Class.IsMem() {
			continue
		}
		if in.Kernel {
			sawKernelMem = true
			if in.Addr < kdataBase {
				t.Fatalf("kernel access %#x in user data range", in.Addr)
			}
		} else {
			sawUserMem = true
			if in.Addr >= kdataBase {
				t.Fatalf("user access %#x in kernel data range", in.Addr)
			}
		}
	}
	if !sawKernelMem || !sawUserMem {
		t.Error("stream lacked kernel or user memory activity")
	}
}

func TestGeneratorSpatialLocalityOrdering(t *testing.T) {
	// eqntott (sequential bit vectors) must show far more chunk-adjacent
	// consecutive loads than raytrace (pointer chasing) — the property
	// the load-all technique exploits.
	adjacency := func(name string) float64 {
		insts := drive(t, name, 7, 200000)
		var lastLoad uint64
		var have bool
		adjacent, total := 0, 0
		for i := range insts {
			in := &insts[i]
			if in.Class != isa.Load || in.Kernel {
				continue
			}
			if have {
				total++
				if in.Addr>>5 == lastLoad>>5 { // same 32-byte chunk
					adjacent++
				}
			}
			lastLoad = in.Addr
			have = true
		}
		return float64(adjacent) / float64(total)
	}
	eq, rt := adjacency("eqntott"), adjacency("raytrace")
	if eq <= rt {
		t.Errorf("spatial adjacency: eqntott %.3f <= raytrace %.3f", eq, rt)
	}
	if eq < 0.3 {
		t.Errorf("eqntott adjacency %.3f implausibly low for a sequential workload", eq)
	}
}

func TestGeneratorBranchBias(t *testing.T) {
	// Per-static-branch outcomes must be biased (predictable), not coin
	// flips everywhere: a majority-vote "predictor" per PC should beat
	// 60% on most workloads.
	insts := drive(t, "compress", 8, 100000)
	taken := map[uint64][2]int{}
	for i := range insts {
		if insts[i].Class != isa.Branch {
			continue
		}
		c := taken[insts[i].PC]
		if insts[i].Taken {
			c[0]++
		}
		c[1]++
		taken[insts[i].PC] = c
	}
	if len(taken) < 10 {
		t.Fatalf("only %d static branches seen", len(taken))
	}
	correct, total := 0, 0
	for _, c := range taken {
		maj := c[0]
		if c[1]-c[0] > maj {
			maj = c[1] - c[0]
		}
		correct += maj
		total += c[1]
	}
	if acc := float64(correct) / float64(total); acc < 0.6 {
		t.Errorf("majority-vote branch accuracy %.3f; branches are unpredictable noise", acc)
	}
}

func TestGeneratorRejectsInvalidProfile(t *testing.T) {
	p, _ := ByName("compress")
	p.CodeBlocks = 0
	if _, err := New(p, 1); err == nil {
		t.Error("invalid profile accepted by New")
	}
}

func TestLayoutBlockAt(t *testing.T) {
	l := buildLayout(50, 6, 0x1000, 0x55)
	for i := 0; i < 50; i++ {
		if got := l.blockAt(l.starts[i]); got != i {
			t.Fatalf("blockAt(start of %d) = %d", i, got)
		}
		end := l.starts[i] + uint64(4*l.lens[i])
		if got := l.blockAt(end - 4); got != i {
			t.Fatalf("blockAt(last pc of %d) = %d", i, got)
		}
	}
	if l.blockAt(0x10) != -1 {
		t.Error("blockAt below code returned a block")
	}
	last := 49
	if l.blockAt(l.starts[last]+uint64(4*l.lens[last])) != -1 {
		t.Error("blockAt past code returned a block")
	}
}
