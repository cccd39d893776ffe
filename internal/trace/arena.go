package trace

import (
	"fmt"
	"math"
	"math/bits"
	"sync"

	"portsim/internal/isa"
)

// An Arena is an immutable, materialised dynamic instruction trace. Sweeps
// that vary only the machine axis replay one arena through many Cursors
// instead of re-running the workload generator per cell.
//
// Every stored word is machine-independent: PCs, operand words and
// register names come straight from the generator, and the flag bits only
// restate properties of the instruction itself (its taken and kernel bits,
// whether its class touches memory, whether it redirects fetch), never
// predictor or cache state. Nothing in an arena encodes a fetch width, a
// line size or a predictor decision, so one arena serves every machine
// configuration.
//
// Arenas are append-once: Materialize fills one and nothing mutates it
// afterwards, so any number of Cursors — across goroutines — may read it
// concurrently without synchronisation. The zero Arena holds no
// instructions.
//
// # Layout
//
// Each instruction is one packed 32-bit word (see the pk constants) plus
// its stored values in a shared array of 32-bit words, in stream order:
//
//   - its PC, only where it differs from the previous instruction's
//     NextPC (the first instruction's predecessor continues to PC 0);
//   - its operand, only where it is nonzero. An instruction's class uses
//     at most one of isa.Inst's Addr and Target, so one operand value
//     serves both: the data address of loads and stores (is-mem bit
//     set), the control target of every other class.
//
// A stored value takes one word when every value the instruction stores
// is below 2^32. Otherwise the packed word's wide bit is set and each of
// its stored values takes two words, low half first.
//
// The word array ends in two zero pad words, so a cursor reads the next
// word (or pair, for a wide instruction) unconditionally and masks it away
// when the presence bit is clear. In the built-in workloads' traces only
// the first instruction stores its PC, over 40% of instructions have no
// operand, and every address fits in one word, so an arena costs under
// 6.5 bytes per instruction, and never more than MaxBytes.
type Arena struct {
	packed []uint32
	words  []uint32

	// expand builds cols, the column view the PCs, Targets, Classes, Meta
	// and Inst accessors return, on first use.
	expand sync.Once
	cols   *columns
}

// Packed instruction word layout, least significant bit first: the class,
// the three registers, a size code (0 for size 0, else log2(size)+1), then
// single-bit flags.
const (
	pkClassBits = 4
	pkRegBits   = 6
	pkSizeBits  = 3

	pkDestShift = pkClassBits
	pkSrc1Shift = pkDestShift + pkRegBits
	pkSrc2Shift = pkSrc1Shift + pkRegBits
	pkSizeShift = pkSrc2Shift + pkRegBits

	pkTakenBit     = pkSizeShift + pkSizeBits
	pkKernelBit    = pkTakenBit + 1
	pkMemBit       = pkKernelBit + 1
	pkRedirectsBit = pkMemBit + 1
	pkHasPCBit     = pkRedirectsBit + 1 // the PC is in the word array
	pkHasOpBit     = pkHasPCBit + 1     // the operand is in the word array
	pkWideBit      = pkHasOpBit + 1     // each stored value takes two words

	pkClassMask = 1<<pkClassBits - 1
	pkRegMask   = 1<<pkRegBits - 1
	pkSizeMask  = 1<<pkSizeBits - 1
)

// Metadata flag bits of the bytes Meta returns.
const (
	MetaTaken  = 1 << 0
	MetaKernel = 1 << 1
	MetaMem    = 1 << 2
	MetaCtrl   = 1 << 3
)

// maxBytesPerInst is the largest per-instruction cost: the packed word
// plus a stored PC and a stored operand, two words each.
const maxBytesPerInst = 4 + 2*8

// MaxBytes returns the largest footprint an arena of n instructions can
// have, or math.MaxInt64 when that does not fit in an int64. Budgets
// reserve it before a build and charge Bytes after.
func MaxBytes(n uint64) int64 {
	const pad = 2 * 4
	if n > (math.MaxInt64-pad)/maxBytesPerInst {
		return math.MaxInt64
	}
	return int64(n)*maxBytesPerInst + pad
}

// wordChunk is how many words Materialize allocates at a time: the
// word count is unknown until the stream is drained, and chunks copied
// once into an exact array leave the arena no spare capacity and no more
// garbage than the words themselves, unlike a slice grown by append.
const wordChunk = 8192

// Materialize drains up to n instructions from s into a new arena, in
// 128-instruction batches. A shorter arena means the stream ended early. It
// panics on an instruction the arena could not replay exactly: one that
// sets the operand field its class does not use (Target on a load or
// store, Addr on any other class), or a class, register or size the packed
// word cannot hold.
func Materialize(s Stream, n int) *Arena {
	b := &builder{packed: make([]uint32, 0, n)}
	var buf [128]isa.Inst
	for len(b.packed) < n {
		want := min(n-len(b.packed), len(buf))
		got := s.NextBatch(buf[:want])
		for i := 0; i < got; i++ {
			b.push(&buf[i])
		}
		if got < want {
			break
		}
	}
	return b.arena()
}

// builder accumulates an arena: the packed words directly, the word array
// in fixed chunks.
type builder struct {
	packed []uint32
	chunks [][]uint32 // full chunks, in order
	cur    []uint32   // the chunk being filled
	next   uint64     // NextPC of the last instruction pushed
}

// push appends one instruction.
func (b *builder) push(in *isa.Inst) {
	if in.Class > pkClassMask || in.Dest > pkRegMask || in.Src1 > pkRegMask || in.Src2 > pkRegMask {
		panic(fmt.Sprintf("trace: %v at pc %#x does not fit the packed word (class %d, registers %d %d %d)",
			in.Class, in.PC, uint8(in.Class), in.Dest, in.Src1, in.Src2))
	}
	if in.Size > 8 || in.Size&(in.Size-1) != 0 {
		panic(fmt.Sprintf("trace: %v at pc %#x has size %d, not 0, 1, 2, 4 or 8", in.Class, in.PC, in.Size))
	}
	x := uint32(in.Class) | uint32(in.Dest)<<pkDestShift | uint32(in.Src1)<<pkSrc1Shift |
		uint32(in.Src2)<<pkSrc2Shift | uint32(bits.Len8(in.Size))<<pkSizeShift
	op := in.Target
	if in.Class.IsMem() {
		x |= 1 << pkMemBit
		op = in.Addr
		if in.Target != 0 {
			panic(fmt.Sprintf("trace: %v at pc %#x sets Target %#x", in.Class, in.PC, in.Target))
		}
	} else if in.Addr != 0 {
		panic(fmt.Sprintf("trace: %v at pc %#x sets Addr %#x", in.Class, in.PC, in.Addr))
	}
	if in.Taken {
		x |= 1 << pkTakenBit
	}
	if in.Kernel {
		x |= 1 << pkKernelBit
	}
	if in.Redirects() {
		x |= 1 << pkRedirectsBit
	}
	hasPC := in.PC != b.next
	wide := (hasPC && in.PC > math.MaxUint32) || op > math.MaxUint32
	if wide {
		x |= 1 << pkWideBit
	}
	if hasPC {
		x |= 1 << pkHasPCBit
		b.value(in.PC, wide)
	}
	if op != 0 {
		x |= 1 << pkHasOpBit
		b.value(op, wide)
	}
	b.next = in.NextPC()
	b.packed = append(b.packed, x)
}

// value appends one stored value to the word array: its low half, then its
// high half when the instruction is wide.
func (b *builder) value(v uint64, wide bool) {
	b.word(uint32(v))
	if wide {
		b.word(uint32(v >> 32))
	}
}

// word appends one word to the word array.
func (b *builder) word(w uint32) {
	if len(b.cur) == cap(b.cur) {
		if b.cur != nil {
			b.chunks = append(b.chunks, b.cur)
		}
		b.cur = make([]uint32, 0, wordChunk)
	}
	b.cur = append(b.cur, w)
}

// arena assembles the word array, with its pad words, and returns the
// finished arena.
func (b *builder) arena() *Arena {
	words := make([]uint32, 0, len(b.chunks)*wordChunk+len(b.cur)+2)
	for _, c := range b.chunks {
		words = append(words, c...)
	}
	words = append(append(words, b.cur...), 0, 0)
	return &Arena{packed: b.packed, words: words}
}

// Len returns the number of instructions held.
func (a *Arena) Len() int { return len(a.packed) }

// Bytes returns the arena's storage footprint: four bytes per instruction
// and per word, the pad included, counting any room Materialize reserved
// for instructions a stream ended without.
func (a *Arena) Bytes() int64 { return int64(cap(a.packed)+cap(a.words)) * 4 }

// decode unpacks the instruction with packed word x into in. w indexes its
// first word in words and next is its predecessor's NextPC; decode returns
// the index past its words and its own NextPC.
//
//portlint:hotpath
func decode(x uint32, words []uint32, w int, next uint64, in *isa.Inst) (int, uint64) {
	var op uint64
	if x>>pkWideBit == 0 {
		// Masks, not branches: which words are present varies too
		// irregularly to predict. The pad keeps words[w] in range at the
		// end.
		hasPC := int(x >> pkHasPCBit & 1)
		pcMask := -uint64(hasPC)
		in.PC = uint64(words[w])&pcMask | next&^pcMask
		w += hasPC
		hasOp := int(x >> pkHasOpBit & 1)
		op = uint64(words[w]) & -uint64(hasOp)
		w += hasOp
	} else {
		in.PC, op, w = decodeWide(x, words, w, next)
	}
	// Field by field: a composite literal builds the struct on the stack
	// and copies it out, stalling on store forwarding.
	mem := -uint64(x >> pkMemBit & 1)
	in.Addr = op & mem
	in.Target = op &^ mem
	in.Class = isa.Class(x & pkClassMask)
	in.Dest = isa.Reg(x >> pkDestShift & pkRegMask)
	in.Src1 = isa.Reg(x >> pkSrc1Shift & pkRegMask)
	in.Src2 = isa.Reg(x >> pkSrc2Shift & pkRegMask)
	in.Size = uint8(1 << (x >> pkSizeShift & pkSizeMask) >> 1)
	in.Taken = x>>pkTakenBit&1 != 0
	in.Kernel = x>>pkKernelBit&1 != 0
	redirect := -uint64(x >> pkRedirectsBit & 1)
	return w, op&redirect | in.FallThrough()&^redirect
}

// decodeWide reads the stored values of a wide instruction, two words each,
// and returns its PC, its operand and the index past its words. It sits
// outside the decode loops: the wide bit is as predictable as it is rare,
// and reading every value as two masked words made batched replay 1.37x
// slower on the built-in profiles' arenas.
func decodeWide(x uint32, words []uint32, w int, next uint64) (pc, op uint64, end int) {
	hasPC := int(x >> pkHasPCBit & 1)
	pcMask := -uint64(hasPC)
	pc = (uint64(words[w])|uint64(words[w+1])<<32)&pcMask | next&^pcMask
	w += 2 * hasPC
	hasOp := int(x >> pkHasOpBit & 1)
	op = (uint64(words[w]) | uint64(words[w+1])<<32) & -uint64(hasOp)
	return pc, op, w + 2*hasOp
}

// columns is an arena expanded into one column per field the accessors
// below expose.
type columns struct {
	pc, op      []uint64
	class, meta []uint8
}

// columns returns the arena's column view, expanding it on first call.
// The simulator never calls it: cursors decode the packed layout directly.
func (a *Arena) columns() *columns {
	a.expand.Do(func() {
		n := a.Len()
		c := &columns{pc: make([]uint64, n), op: make([]uint64, n), class: make([]uint8, n), meta: make([]uint8, n)}
		var in isa.Inst
		w, next := 0, uint64(0)
		for i, x := range a.packed {
			w, next = decode(x, a.words, w, next, &in)
			var m uint8
			if in.Taken {
				m |= MetaTaken
			}
			if in.Kernel {
				m |= MetaKernel
			}
			if in.Class.IsMem() {
				m |= MetaMem
			}
			if in.Class.IsCtrl() {
				m |= MetaCtrl
			}
			c.pc[i], c.op[i], c.class[i], c.meta[i] = in.PC, in.Addr|in.Target, uint8(in.Class), m
		}
		a.cols = c
	})
	return a.cols
}

// PCs returns every instruction's address, expanding the arena into
// columns on first call.
func (a *Arena) PCs() []uint64 { return a.columns().pc }

// Targets returns every instruction's operand word: the control-transfer
// target outside MetaMem (zero for non-control classes), the data address
// of loads and stores. It expands the arena into columns on first call.
func (a *Arena) Targets() []uint64 { return a.columns().op }

// Classes returns every instruction's class as a raw byte, expanding the
// arena into columns on first call.
func (a *Arena) Classes() []uint8 { return a.columns().class }

// Meta returns every instruction's Meta flag byte, expanding the arena
// into columns on first call.
func (a *Arena) Meta() []uint8 { return a.columns().meta }

// Inst decodes instruction i into in, exactly as the originating stream
// produced it. Random access needs the column view, which the first call
// builds; replay belongs to a Cursor.
func (a *Arena) Inst(i int, in *isa.Inst) {
	c := a.columns()
	words := [4]uint32{uint32(c.pc[i]), uint32(c.pc[i] >> 32), uint32(c.op[i]), uint32(c.op[i] >> 32)}
	decode(a.packed[i]|1<<pkHasPCBit|1<<pkHasOpBit|1<<pkWideBit, words[:], 0, 0, in)
}

// NewCursor returns a fresh replay position over the arena. Cursors are
// cheap; one arena serves any number of them concurrently.
func (a *Arena) NewCursor() *Cursor { return &Cursor{a: a} }

// Cursor replays an arena from the beginning. It implements Stream with
// zero allocations.
type Cursor struct {
	a    *Arena
	pos  int    // next instruction
	w    int    // its first word in the word array
	next uint64 // its predecessor's NextPC
}

// Reset rewinds the cursor to the start of arena a, so a consumer that
// replays one arena after another keeps one cursor.
func (c *Cursor) Reset(a *Arena) { *c = Cursor{a: a} }

// NextBatch implements Stream.
//
//portlint:hotpath
func (c *Cursor) NextBatch(dst []isa.Inst) int {
	n := min(len(c.a.packed)-c.pos, len(dst))
	packed, dst := c.a.packed[c.pos:c.pos+n], dst[:n]
	words, w, next := c.a.words, c.w, c.next
	for i, x := range packed {
		// decode's body, by hand. The compiler will not inline decode:
		// calling it made batched replay about a fifth slower, and
		// splitting it into inlinable pieces spilled registers.
		in := &dst[i]
		var op uint64
		if x>>pkWideBit == 0 {
			hasPC := int(x >> pkHasPCBit & 1)
			pcMask := -uint64(hasPC)
			in.PC = uint64(words[w])&pcMask | next&^pcMask
			w += hasPC
			hasOp := int(x >> pkHasOpBit & 1)
			op = uint64(words[w]) & -uint64(hasOp)
			w += hasOp
		} else {
			in.PC, op, w = decodeWide(x, words, w, next)
		}
		mem := -uint64(x >> pkMemBit & 1)
		in.Addr = op & mem
		in.Target = op &^ mem
		in.Class = isa.Class(x & pkClassMask)
		in.Dest = isa.Reg(x >> pkDestShift & pkRegMask)
		in.Src1 = isa.Reg(x >> pkSrc1Shift & pkRegMask)
		in.Src2 = isa.Reg(x >> pkSrc2Shift & pkRegMask)
		in.Size = uint8(1 << (x >> pkSizeShift & pkSizeMask) >> 1)
		in.Taken = x>>pkTakenBit&1 != 0
		in.Kernel = x>>pkKernelBit&1 != 0
		redirect := -uint64(x >> pkRedirectsBit & 1)
		next = op&redirect | in.FallThrough()&^redirect
	}
	c.pos, c.w, c.next = c.pos+n, w, next
	return n
}
