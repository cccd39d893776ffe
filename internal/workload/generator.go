package workload

import (
	"fmt"
	"math/rand"

	"portsim/internal/isa"
)

// Code layout constants. User and kernel code live in disjoint address
// ranges; kernel data likewise sits high.
const (
	userCodeBase   = 0x0040_0000
	kernelCodeBase = 0x8000_0000
	maxCallDepth   = 64
)

// splitmix64 hashes a static entity id into per-entity constants (block
// lengths, branch biases), independent of the dynamic PRNG so that code
// structure is a function of the profile alone.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// codeLayout is the synthetic static program of one privilege mode: a list
// of contiguous basic blocks with per-block terminators and biases.
type codeLayout struct {
	base      uint64
	lens      []int    // instructions per block, incl. terminator
	starts    []uint64 // starting PC of each block
	termKind  []isa.Class
	takenProb []float64
	target    []int // successor block index for taken/jump/call
}

// buildLayout derives a deterministic code layout from a salt (so user and
// kernel layouts differ even with equal parameters).
func buildLayout(blocks, meanLen int, base uint64, salt uint64) *codeLayout {
	l := &codeLayout{
		base:      base,
		lens:      make([]int, blocks),
		starts:    make([]uint64, blocks),
		termKind:  make([]isa.Class, blocks),
		takenProb: make([]float64, blocks),
		target:    make([]int, blocks),
	}
	pc := base
	for i := 0; i < blocks; i++ {
		h := splitmix64(uint64(i) ^ salt)
		// Block length in [2, 2*meanLen], mean ~ meanLen.
		l.lens[i] = 2 + int(h%uint64(2*meanLen-3))
		l.starts[i] = pc
		pc += uint64(4 * l.lens[i])

		h2 := splitmix64(h)
		switch {
		case i == blocks-1:
			// The last block always jumps back to the top so the
			// stream never falls off the end of the code.
			l.termKind[i] = isa.Jump
			l.target[i] = 0
		case h2%100 < 70:
			l.termKind[i] = isa.Branch
			// Per-static-branch bias: most branches are strongly
			// biased (loop back-edges, error checks), a few are
			// weakly biased — this is what gives the direction
			// predictor realistic work at realistic accuracy.
			switch (h2 / 100) % 10 {
			case 0, 1, 2, 3:
				l.takenProb[i] = 0.97
			case 4, 5, 6:
				l.takenProb[i] = 0.03
			case 7, 8:
				l.takenProb[i] = 0.85
			default:
				l.takenProb[i] = 0.35
			}
			// Mostly backward (loops), some forward.
			if (h2/1000)%4 != 0 {
				back := 1 + int((h2/10000)%8)
				l.target[i] = i - back
				if l.target[i] < 0 {
					l.target[i] = 0
				}
			} else {
				fwd := 2 + int((h2/10000)%8)
				l.target[i] = i + fwd
				if l.target[i] >= blocks {
					l.target[i] = 0
				}
			}
		case h2%100 < 80:
			l.termKind[i] = isa.Jump
			l.target[i] = int((h2 / 100) % uint64(blocks))
		case h2%100 < 90:
			l.termKind[i] = isa.Call
			l.target[i] = int((h2 / 100) % uint64(blocks))
		default:
			l.termKind[i] = isa.Return
			l.target[i] = 0 // actual target comes from the call stack
		}
	}
	return l
}

// blockAt maps a PC to a block index (for return targets), or -1.
func (l *codeLayout) blockAt(pc uint64) int {
	lo, hi := 0, len(l.starts)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		s := l.starts[mid]
		e := s + uint64(4*l.lens[mid])
		switch {
		case pc < s:
			hi = mid - 1
		case pc >= e:
			lo = mid + 1
		default:
			return mid
		}
	}
	return -1
}

// regionState is the dynamic cursor of one region.
type regionState struct {
	spec   Region
	cursor uint64
	run    int
	runOff uint64
	// baseReg is the long-lived architectural register holding the
	// region's base pointer. Real code addresses memory through stable
	// bases (stack pointer, object pointers), so memory operations take
	// their address dependence from it rather than from hot short-lived
	// registers; it is rewritten only by occasional pointer updates.
	baseReg isa.Reg
	// chaseReg is the destination register of the last chase load, which
	// the next chase load consumes (serial dependence).
	chaseReg isa.Reg
}

// modeState bundles everything that differs between user and kernel mode.
type modeState struct {
	layout   *codeLayout
	mix      Mix
	regions  []regionState
	weights  []float64 // cumulative, normalised
	block    int
	posInBlk int
	kernel   bool
}

// Generator implements trace.Stream for a Profile.
type Generator struct {
	prof Profile
	rng  *rand.Rand

	user, kern modeState
	cur        *modeState

	// Call stack of return PCs (with the mode they belong to). pushCall
	// keeps at most maxCallDepth sites, the capacity New gives it.
	callStack []retSite

	// Register allocation: rotating destination rings plus a recency
	// window for sourcing operands.
	nextIntDest, nextFPDest int
	recentInt, recentFP     [8]isa.Reg

	// Kernel cadence.
	toKernel    int // user instructions until next kernel entry
	kernelLeft  int // kernel instructions remaining in this episode
	pendingTrap bool
}

type retSite struct {
	pc     uint64
	kernel bool
}

// New constructs a generator for the profile with the given seed. The
// profile must validate.
func New(p Profile, seed int64) (*Generator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	g := &Generator{
		prof:      p,
		rng:       rand.New(rand.NewSource(seed)),
		callStack: make([]retSite, 0, maxCallDepth),
	}
	g.user = newModeState(p.Mix, p.Regions, buildLayout(p.CodeBlocks, p.MeanBlockLen, userCodeBase, 0xABCD), false)
	if p.Kernel.EveryMean > 0 {
		k := p.Kernel
		g.kern = newModeState(k.Mix, k.Regions, buildLayout(k.CodeBlocks, k.MeanBlockLen, kernelCodeBase, 0x1234), true)
		g.toKernel = g.exp(k.EveryMean)
	}
	g.cur = &g.user
	g.nextIntDest = 1
	g.nextFPDest = int(isa.FPBase) + 1
	for i := range g.recentInt {
		g.recentInt[i] = isa.Reg(1 + i)
		g.recentFP[i] = isa.FPBase + isa.Reg(1+i)
	}
	return g, nil
}

func newModeState(mix Mix, regions []Region, layout *codeLayout, kernel bool) modeState {
	ms := modeState{
		layout:  layout,
		mix:     mix,
		kernel:  kernel,
		regions: make([]regionState, 0, len(regions)),
		weights: make([]float64, 0, len(regions)),
	}
	total := 0.0
	for _, r := range regions {
		total += r.Weight
	}
	cum := 0.0
	for i, r := range regions {
		cum += r.Weight / total
		rs := regionState{spec: r, cursor: r.Base, baseReg: isa.Reg(25 + i%6)}
		if r.Pattern == Stack {
			rs.cursor = r.Base + r.Size/2
		}
		ms.regions = append(ms.regions, rs)
		ms.weights = append(ms.weights, cum)
	}
	return ms
}

// exp draws an exponential-ish integer with the given mean (at least 1),
// implemented as a geometric draw for determinism and speed.
func (g *Generator) exp(mean int) int {
	if mean <= 1 {
		return 1
	}
	// Geometric with p = 1/mean has mean ~= mean.
	n := 1
	for g.rng.Float64() > 1.0/float64(mean) {
		n++
		if n >= 20*mean {
			break
		}
	}
	return n
}

// NextBatch implements trace.Stream: it fills all of dst, since the
// generator never exhausts; a bounded run bounds its own reads.
func (g *Generator) NextBatch(dst []isa.Inst) int {
	for i := range dst {
		g.next(&dst[i])
	}
	return len(dst)
}

// next emits the generator's next instruction into in.
func (g *Generator) next(in *isa.Inst) {
	ms := g.cur
	blk := ms.block
	pc := ms.layout.starts[blk] + uint64(4*ms.posInBlk)
	last := ms.posInBlk == ms.layout.lens[blk]-1

	*in = isa.Inst{PC: pc, Kernel: ms.kernel}

	if last {
		g.emitTerminator(in, ms, blk)
	} else {
		g.emitBody(in, ms)
		ms.posInBlk++
	}
	g.tickKernelCadence(ms)
}

// tickKernelCadence advances the user->kernel->user state machine. Traps
// and returns are realised at block boundaries by emitTerminator; here we
// only run the countdowns.
func (g *Generator) tickKernelCadence(ms *modeState) {
	if g.prof.Kernel.EveryMean == 0 {
		return
	}
	if ms.kernel {
		if g.kernelLeft > 0 {
			g.kernelLeft--
		}
		return
	}
	if g.toKernel > 0 {
		g.toKernel--
	}
	if g.toKernel == 0 {
		g.pendingTrap = true
	}
}

// emitTerminator produces the block's final instruction and moves the
// generator to the next block, honouring pending kernel traps and exits.
func (g *Generator) emitTerminator(in *isa.Inst, ms *modeState, blk int) {
	l := ms.layout
	fall := in.PC + 4

	// Kernel entry: override the terminator with a syscall.
	if g.pendingTrap && !ms.kernel {
		g.pendingTrap = false
		g.toKernel = -1 // re-armed at kernel exit
		g.kernelLeft = g.exp(g.prof.Kernel.LengthMean)
		in.Class = isa.Syscall
		in.Target = g.kern.layout.starts[0]
		g.pushCall(fall, false)
		g.kern.block = 0
		g.kern.posInBlk = 0
		g.cur = &g.kern
		return
	}
	// Kernel exit: return to the trapped user PC.
	if ms.kernel && g.kernelLeft == 0 {
		in.Class = isa.Return
		ret, ok := g.popCallTo(false)
		if !ok {
			ret = retSite{pc: g.user.layout.starts[0], kernel: false}
		}
		in.Target = ret.pc
		ub := g.user.layout.blockAt(ret.pc)
		if ub < 0 {
			ub = 0
			in.Target = g.user.layout.starts[0]
		}
		g.user.block = ub
		//portlint:ignore cyclemath pushed return PCs lie inside the layout, so starts[ub] <= ret.pc
		g.user.posInBlk = int((ret.pc - g.user.layout.starts[ub]) / 4)
		g.cur = &g.user
		g.toKernel = g.exp(g.prof.Kernel.EveryMean)
		return
	}

	kind := l.termKind[blk]
	switch kind {
	case isa.Branch:
		in.Class = isa.Branch
		in.Target = l.starts[l.target[blk]]
		in.Taken = g.rng.Float64() < l.takenProb[blk]
		if in.Taken {
			g.enterBlock(ms, l.target[blk])
		} else {
			g.enterBlock(ms, blk+1)
		}
	case isa.Jump:
		in.Class = isa.Jump
		in.Target = l.starts[l.target[blk]]
		g.enterBlock(ms, l.target[blk])
	case isa.Call:
		in.Class = isa.Call
		in.Target = l.starts[l.target[blk]]
		g.pushCall(fall, ms.kernel)
		g.enterBlock(ms, l.target[blk])
	case isa.Return:
		in.Class = isa.Return
		ret, ok := g.popCallSameMode(ms.kernel)
		if !ok {
			// Nothing to return to in this mode: degrade to a jump.
			in.Class = isa.Jump
			in.Target = l.starts[l.target[blk]]
			g.enterBlock(ms, l.target[blk])
			return
		}
		in.Target = ret.pc
		b := l.blockAt(ret.pc)
		if b < 0 {
			b = 0
			in.Target = l.starts[0]
		}
		ms.block = b
		//portlint:ignore cyclemath pushed return PCs lie inside the layout, so starts[b] <= ret.pc
		ms.posInBlk = int((ret.pc - l.starts[b]) / 4)
	default:
		panic(fmt.Sprintf("workload: block %d has terminator %v", blk, kind))
	}
}

func (g *Generator) enterBlock(ms *modeState, b int) {
	if b >= len(ms.layout.lens) {
		b = 0
	}
	ms.block = b
	ms.posInBlk = 0
}

func (g *Generator) pushCall(pc uint64, kernel bool) {
	if len(g.callStack) >= maxCallDepth {
		copy(g.callStack, g.callStack[1:])
		g.callStack = g.callStack[:len(g.callStack)-1]
	}
	g.callStack = append(g.callStack, retSite{pc: pc, kernel: kernel})
}

// popCallTo pops the most recent return site belonging to the given mode,
// discarding younger sites of the other mode. Used at kernel exit, where
// any kernel frames left above the trapped user frame are abandoned.
func (g *Generator) popCallTo(kernel bool) (retSite, bool) {
	for len(g.callStack) > 0 {
		top := g.callStack[len(g.callStack)-1]
		g.callStack = g.callStack[:len(g.callStack)-1]
		if top.kernel == kernel {
			return top, true
		}
	}
	return retSite{}, false
}

// popCallSameMode pops the top frame only when it belongs to the given
// mode; otherwise the stack is untouched. Ordinary return terminators use
// this so a kernel return never consumes the user resume frame pushed by
// the syscall that entered the episode.
func (g *Generator) popCallSameMode(kernel bool) (retSite, bool) {
	if n := len(g.callStack); n > 0 && g.callStack[n-1].kernel == kernel {
		top := g.callStack[n-1]
		g.callStack = g.callStack[:n-1]
		return top, true
	}
	return retSite{}, false
}

// emitBody produces one non-terminator instruction according to the mix.
func (g *Generator) emitBody(in *isa.Inst, ms *modeState) {
	r := g.rng.Float64()
	m := ms.mix
	switch {
	case r < m.Load:
		g.emitLoad(in, ms)
	case r < m.Load+m.Store:
		g.emitStore(in, ms)
	case r < m.Load+m.Store+m.FPAdd:
		g.emitFP(in, isa.FPAdd)
	case r < m.Load+m.Store+m.FPAdd+m.FPMul:
		g.emitFP(in, isa.FPMul)
	case r < m.Load+m.Store+m.FPAdd+m.FPMul+m.FPDiv:
		g.emitFP(in, isa.FPDiv)
	case r < m.Load+m.Store+m.FPAdd+m.FPMul+m.FPDiv+m.IntMul:
		g.emitInt(in, isa.IntMul)
	case r < m.Load+m.Store+m.FPAdd+m.FPMul+m.FPDiv+m.IntMul+m.IntDiv:
		g.emitInt(in, isa.IntDiv)
	case r < m.total():
		in.Class = isa.Nop
	default:
		g.emitInt(in, isa.IntALU)
	}
}

func (g *Generator) emitInt(in *isa.Inst, class isa.Class) {
	in.Class = class
	in.Src1 = g.sourceInt()
	in.Src2 = g.sourceInt()
	// Occasional pointer updates rewrite a base register (cursor bumps,
	// object-field walks), creating realistic sparse address dependences.
	if class == isa.IntALU && g.rng.Float64() < 0.03 {
		in.Dest = isa.Reg(25 + g.rng.Intn(6))
		return
	}
	in.Dest = g.allocInt()
}

func (g *Generator) emitFP(in *isa.Inst, class isa.Class) {
	in.Class = class
	in.Src1 = g.sourceFP()
	in.Src2 = g.sourceFP()
	in.Dest = g.allocFP()
}

func (g *Generator) emitLoad(in *isa.Inst, ms *modeState) {
	in.Class = isa.Load
	rs := g.pickRegion(ms)
	size := g.accessSize()
	in.Addr = g.nextAddr(rs, size)
	in.Size = size
	if rs.spec.Pattern == Chase && rs.chaseReg != isa.RegZero {
		in.Src1 = rs.chaseReg // serial dependence on the previous hop
	} else {
		in.Src1 = rs.baseReg // stable base pointer
	}
	if g.isFPRegion(rs) {
		in.Dest = g.allocFP()
	} else {
		in.Dest = g.allocInt()
		if rs.spec.Pattern == Chase {
			rs.chaseReg = in.Dest
		}
	}
}

func (g *Generator) emitStore(in *isa.Inst, ms *modeState) {
	in.Class = isa.Store
	rs := g.pickRegion(ms)
	size := g.accessSize()
	in.Addr = g.nextAddr(rs, size)
	in.Size = size
	in.Src1 = rs.baseReg // stable base pointer
	if g.isFPRegion(rs) {
		in.Src2 = g.sourceFP()
	} else {
		in.Src2 = g.sourceInt() // data register
	}
}

// isFPRegion: strided/sequential numeric arrays feed the FP pipelines when
// the profile has FP work; a cheap, deterministic heuristic.
func (g *Generator) isFPRegion(rs *regionState) bool {
	hasFP := g.cur.mix.FPAdd+g.cur.mix.FPMul+g.cur.mix.FPDiv > 0
	return hasFP && (rs.spec.Pattern == Strided || rs.spec.Pattern == Sequential)
}

func (g *Generator) accessSize() uint8 {
	r := g.rng.Float64()
	switch {
	case r < g.prof.Size8Frac:
		return 8
	case r < g.prof.Size8Frac+g.prof.Size1Frac:
		return 1
	default:
		return 4
	}
}

func (g *Generator) pickRegion(ms *modeState) *regionState {
	r := g.rng.Float64()
	for i := range ms.regions {
		if r <= ms.weights[i] {
			return &ms.regions[i]
		}
	}
	return &ms.regions[len(ms.regions)-1]
}

// nextAddr advances the region cursor and returns a naturally aligned
// address for the access.
func (g *Generator) nextAddr(rs *regionState, size uint8) uint64 {
	s := &rs.spec
	align := uint64(size)
	var addr uint64
	switch s.Pattern {
	case Sequential, Strided:
		if rs.run > 0 {
			rs.run--
			rs.runOff += uint64(size)
			addr = rs.cursor + rs.runOff
		} else {
			rs.cursor += s.StrideBytes
			if rs.cursor+s.StrideBytes >= s.Base+s.Size {
				rs.cursor = s.Base
			}
			rs.runOff = 0
			if s.Run > 1 {
				rs.run = s.Run - 1
			}
			addr = rs.cursor
		}
	case Random:
		addr = s.Base + uint64(g.rng.Int63n(int64(s.Size-8)))
	case Chase:
		rs.cursor = s.Base + (splitmix64(rs.cursor) % (s.Size - 8))
		addr = rs.cursor
	case Stack:
		// Wander near the stack pointer.
		delta := uint64(g.rng.Int63n(128))
		if g.rng.Intn(2) == 0 && rs.cursor > s.Base+delta+64 {
			rs.cursor -= delta //portlint:ignore cyclemath guard above gives cursor > Base+delta+64 >= delta
		} else if rs.cursor+delta+64 < s.Base+s.Size {
			rs.cursor += delta
		}
		addr = rs.cursor
	}
	addr &^= align - 1
	// Clamp inside the region after alignment.
	if addr < s.Base {
		addr = s.Base
	}
	if addr+align > s.Base+s.Size {
		addr = s.Base + s.Size - align //portlint:ignore cyclemath Region.Size is validated >= 64 >= align
		addr &^= align - 1
	}
	return addr
}

// allocInt rotates through the integer destination ring and records
// recency.
func (g *Generator) allocInt() isa.Reg {
	r := isa.Reg(g.nextIntDest)
	g.nextIntDest++
	if g.nextIntDest > 24 {
		g.nextIntDest = 1
	}
	copy(g.recentInt[1:], g.recentInt[:len(g.recentInt)-1])
	g.recentInt[0] = r
	return r
}

func (g *Generator) allocFP() isa.Reg {
	r := isa.Reg(g.nextFPDest)
	g.nextFPDest++
	if g.nextFPDest > int(isa.FPBase)+24 {
		g.nextFPDest = int(isa.FPBase) + 1
	}
	copy(g.recentFP[1:], g.recentFP[:len(g.recentFP)-1])
	g.recentFP[0] = r
	return r
}

// sourceInt picks an operand register: usually a recently written one
// (short dependence distances dominate real code), occasionally a distant
// one, occasionally none.
func (g *Generator) sourceInt() isa.Reg {
	r := g.rng.Float64()
	switch {
	case r < 0.15:
		return isa.RegZero
	case r < 0.75:
		return g.recentInt[g.rng.Intn(3)]
	default:
		return g.recentInt[g.rng.Intn(len(g.recentInt))]
	}
}

func (g *Generator) sourceFP() isa.Reg {
	r := g.rng.Float64()
	switch {
	case r < 0.6:
		return g.recentFP[g.rng.Intn(3)]
	default:
		return g.recentFP[g.rng.Intn(len(g.recentFP))]
	}
}
