package trace

import (
	"fmt"

	"portsim/internal/isa"
)

// An Arena is an immutable, materialised dynamic instruction trace in
// struct-of-arrays layout. Sweeps that vary only the machine axis replay
// one arena through many Cursors instead of re-running the workload
// generator per cell.
//
// Every stored word is machine-independent: PCs, operand words and
// register names come straight from the generator, and the metadata byte
// only restates properties of the instruction itself (its taken and kernel
// bits and its class kind), never predictor or cache state. Nothing in an
// arena encodes a fetch width, a line size or a predictor decision, so one
// arena serves every machine configuration.
//
// Arenas are append-once: Materialize fills one and nothing mutates it
// afterwards, so any number of Cursors — across goroutines — may read it
// concurrently without synchronisation.
//
// An instruction's class uses at most one of isa.Inst's Addr and Target,
// so the arena keeps one operand word per instruction: the data address
// for loads and stores (MetaMem set), the control target for every other
// class.
type Arena struct {
	pc    []uint64
	op    []uint64
	class []uint8
	dest  []uint8
	src1  []uint8
	src2  []uint8
	size  []uint8
	meta  []uint8
}

// Metadata flag bits, one byte per instruction.
const (
	MetaTaken  = 1 << 0
	MetaKernel = 1 << 1
	MetaMem    = 1 << 2
	MetaCtrl   = 1 << 3
)

// BytesPerInst is the arena storage cost per instruction: two 64-bit
// words (pc, operand) plus six bytes (class, three registers, size,
// metadata). Byte budgets divide by this.
const BytesPerInst = 2*8 + 6

// Materialize drains up to n instructions from s into a new arena, using
// the stream's batch interface when it has one. A shorter arena means the
// stream ended early. It panics on an instruction that sets the operand
// field its class does not use (Target on a load or store, Addr on any
// other class): the arena could not replay it exactly.
func Materialize(s Stream, n int) *Arena {
	a := &Arena{
		pc:    make([]uint64, 0, n),
		op:    make([]uint64, 0, n),
		class: make([]uint8, 0, n),
		dest:  make([]uint8, 0, n),
		src1:  make([]uint8, 0, n),
		src2:  make([]uint8, 0, n),
		size:  make([]uint8, 0, n),
		meta:  make([]uint8, 0, n),
	}
	if b, ok := s.(Batcher); ok {
		var buf [128]isa.Inst
		for len(a.pc) < n {
			want := n - len(a.pc)
			if want > len(buf) {
				want = len(buf)
			}
			got := b.NextBatch(buf[:want])
			for i := 0; i < got; i++ {
				a.push(&buf[i])
			}
			if got < want {
				break
			}
		}
		return a
	}
	var in isa.Inst
	for len(a.pc) < n && s.Next(&in) {
		a.push(&in)
	}
	return a
}

// push appends one instruction.
func (a *Arena) push(in *isa.Inst) {
	var m uint8
	if in.Taken {
		m |= MetaTaken
	}
	if in.Kernel {
		m |= MetaKernel
	}
	op := in.Target
	if in.Class.IsMem() {
		m |= MetaMem
		op = in.Addr
		if in.Target != 0 {
			panic(fmt.Sprintf("trace: %v at pc %#x sets Target %#x", in.Class, in.PC, in.Target))
		}
	} else if in.Addr != 0 {
		panic(fmt.Sprintf("trace: %v at pc %#x sets Addr %#x", in.Class, in.PC, in.Addr))
	}
	if in.Class.IsCtrl() {
		m |= MetaCtrl
	}
	a.pc = append(a.pc, in.PC)
	a.op = append(a.op, op)
	a.class = append(a.class, uint8(in.Class))
	a.dest = append(a.dest, uint8(in.Dest))
	a.src1 = append(a.src1, uint8(in.Src1))
	a.src2 = append(a.src2, uint8(in.Src2))
	a.size = append(a.size, in.Size)
	a.meta = append(a.meta, m)
}

// Len returns the number of instructions held.
func (a *Arena) Len() int { return len(a.pc) }

// Bytes returns the arena's storage footprint.
func (a *Arena) Bytes() int64 { return int64(len(a.pc)) * BytesPerInst }

// PCs exposes the packed instruction addresses.
//
//portlint:hotpath
func (a *Arena) PCs() []uint64 { return a.pc }

// Targets exposes the packed operand words: the control-transfer target of
// every instruction outside MetaMem (zero for non-control classes), and the
// data address of loads and stores.
//
//portlint:hotpath
func (a *Arena) Targets() []uint64 { return a.op }

// Classes exposes the packed instruction classes as raw bytes.
//
//portlint:hotpath
func (a *Arena) Classes() []uint8 { return a.class }

// Meta exposes the packed per-instruction metadata flag bytes.
//
//portlint:hotpath
func (a *Arena) Meta() []uint8 { return a.meta }

// Inst decodes instruction i into in, exactly as the originating stream
// produced it.
//
//portlint:hotpath
func (a *Arena) Inst(i int, in *isa.Inst) {
	m := a.meta[i]
	// mem is all ones for loads and stores and zero otherwise: a mask, not
	// a branch, because classes interleave too irregularly to predict.
	mem := -uint64(m & MetaMem / MetaMem)
	in.PC = a.pc[i]
	in.Addr = a.op[i] & mem
	in.Target = a.op[i] &^ mem
	in.Class = isa.Class(a.class[i])
	in.Dest = isa.Reg(a.dest[i])
	in.Src1 = isa.Reg(a.src1[i])
	in.Src2 = isa.Reg(a.src2[i])
	in.Size = a.size[i]
	in.Taken = m&MetaTaken != 0
	in.Kernel = m&MetaKernel != 0
}

// NewCursor returns a fresh replay position over the arena. Cursors are
// cheap; one arena serves any number of them concurrently.
func (a *Arena) NewCursor() *Cursor { return &Cursor{a: a} }

// Cursor replays an arena from the beginning. It implements Stream and
// Batcher with zero allocations.
type Cursor struct {
	a   *Arena
	pos int
}

// Next implements Stream.
//
//portlint:hotpath
func (c *Cursor) Next(in *isa.Inst) bool {
	if c.pos >= len(c.a.pc) {
		return false
	}
	c.a.Inst(c.pos, in)
	c.pos++
	return true
}

// NextBatch implements Batcher.
//
//portlint:hotpath
func (c *Cursor) NextBatch(dst []isa.Inst) int {
	n := len(c.a.pc) - c.pos
	if n > len(dst) {
		n = len(dst)
	}
	for i := 0; i < n; i++ {
		c.a.Inst(c.pos+i, &dst[i])
	}
	c.pos += n
	return n
}
