package trace

import (
	"math"
	"testing"

	"portsim/internal/isa"
)

var _ Batcher = (*Cursor)(nil)

// arenaTestProgram builds a varied synthetic trace: every class kind,
// taken and not-taken branches, kernel episodes, memory operations with
// sizes — enough to exercise every metadata bit.
func arenaTestProgram(n int) []isa.Inst {
	insts := make([]isa.Inst, 0, n)
	pc := uint64(0x40_0000)
	for i := 0; len(insts) < n; i++ {
		var in isa.Inst
		switch i % 11 {
		case 0:
			in = isa.Inst{PC: pc, Class: isa.IntALU, Dest: 3, Src1: 4, Src2: 5}
		case 1:
			in = isa.Inst{PC: pc, Class: isa.Load, Dest: 6, Src1: 3, Addr: 0x1000 + uint64(i)*8, Size: 8}
		case 2:
			in = isa.Inst{PC: pc, Class: isa.Store, Src1: 6, Src2: 3, Addr: 0x2000 + uint64(i)*4, Size: 4}
		case 3:
			in = isa.Inst{PC: pc, Class: isa.Branch, Src1: 6, Taken: i%2 == 0, Target: pc + 64}
		case 4:
			in = isa.Inst{PC: pc, Class: isa.FPAdd, Dest: 40, Src1: 41, Src2: 42}
		case 5:
			in = isa.Inst{PC: pc, Class: isa.Jump, Target: pc + 128}
		case 6:
			in = isa.Inst{PC: pc, Class: isa.Call, Target: pc + 256}
		case 7:
			in = isa.Inst{PC: pc, Class: isa.Return, Target: pc - 512}
		case 8:
			in = isa.Inst{PC: pc, Class: isa.Syscall, Target: 0x8000_0000}
		case 9:
			in = isa.Inst{PC: pc, Class: isa.Load, Dest: 7, Src1: 8, Addr: 0x9000, Size: 4, Kernel: true}
		case 10:
			in = isa.Inst{PC: pc, Class: isa.IntMul, Dest: 9, Src1: 10, Src2: 11}
		}
		insts = append(insts, in)
		if in.Redirects() {
			pc = in.Target
		} else {
			pc = in.FallThrough()
		}
	}
	return insts
}

// irregularProgram is arenaTestProgram(n) with what a generated trace
// rarely or never carries written over it: PCs that break from the previous
// instruction's NextPC at the first, a middle and the last instruction, PC
// and operand values at or above 2^32 (alone, together, beside a stored
// value below 2^32, and on the last instruction, with no operand), every
// size, registers 0 and 63, and the taken and kernel bits on classes that
// do not use them.
func irregularProgram(n int) []isa.Inst {
	prog := arenaTestProgram(n)
	prog[0].PC = 0x1_0000_0000
	prog[n/3] = isa.Inst{PC: 0x50_0000, Class: isa.Load, Dest: 2, Src1: 3, Addr: 0x3_0000_0000, Size: 8}
	prog[n/2].PC = 0xffff_ffff_ffff_fff0
	prog[n-1] = isa.Inst{PC: 0x2_0000_0000, Class: isa.IntALU, Dest: 1}
	edges := []isa.Inst{
		{Class: isa.Load, Dest: 63, Src1: 0, Addr: 0x7fff_0000_0000, Size: 1},
		{Class: isa.Store, Src1: 63, Src2: 63, Addr: 0xdead_beef_0002, Size: 2},
		{Class: isa.Load, Dest: 1, Src1: 63, Addr: 0x8_0000_0004, Size: 4, Kernel: true},
		{Class: isa.Store, Src1: 0, Src2: 0, Addr: 0x1_0000_0008, Size: 8, Taken: true},
		{Class: isa.Load, Dest: 63, Src1: 62, Size: 8}, // a zero operand on a load
		{Class: isa.IntALU, Dest: 63, Src1: 63, Src2: 63, Taken: true, Kernel: true},
		{Class: isa.Nop, Size: 8},
		{Class: isa.Jump, Target: 0x1_2345_6780},
		{Class: isa.Branch, Src1: 63, Taken: true, Target: 0xffff_ffff_0000_0000},
		{Class: isa.Call, Target: 0}, // a redirect to PC 0 stores neither word
		{Class: isa.Return, Target: 0x40_1000, Kernel: true},
		{Class: isa.FPDiv, Dest: 63, Src1: 32, Src2: 63},
	}
	for i, e := range edges {
		at := n/4 + 3*i
		e.PC = prog[at].PC
		prog[at] = e
	}
	return prog
}

// layoutBytes is the packed layout's arithmetic for prog: four bytes per
// instruction, four per PC that breaks from the previous instruction's
// NextPC and per nonzero operand (eight each on an instruction that stores
// a value at or above 2^32), and eight for the pad words.
func layoutBytes(prog []isa.Inst) int64 {
	bytes, next := int64(8), uint64(0)
	for i := range prog {
		in := &prog[i]
		var stored []uint64
		if in.PC != next {
			stored = append(stored, in.PC)
		}
		if op := in.Addr | in.Target; op != 0 {
			stored = append(stored, op)
		}
		per := int64(4)
		for _, v := range stored {
			if v > math.MaxUint32 {
				per = 8
			}
		}
		bytes += 4 + per*int64(len(stored))
		next = in.NextPC()
	}
	return bytes
}

// TestArenaReplayMatchesSource is the arena's core contract: a cursor over
// a materialised stream replays instruction-for-instruction what the
// source stream produced, via Next, via NextBatch in awkward chunk sizes
// and via random-access Inst, on a program that follows NextPC and on one
// that breaks every assumption the packed layout leans on; the arena costs
// exactly the layout's arithmetic; and the metadata bits restate the
// instruction's own properties exactly.
func TestArenaReplayMatchesSource(t *testing.T) {
	const n = 5_000
	for _, prog := range []struct {
		name string
		want []isa.Inst
	}{
		{"regular", arenaTestProgram(n)},
		{"irregular", irregularProgram(n)},
	} {
		t.Run(prog.name, func(t *testing.T) {
			checkReplay(t, prog.want)
		})
	}
}

func checkReplay(t *testing.T, want []isa.Inst) {
	n := len(want)
	a := Materialize(NewSliceStream(want), n)
	if a.Len() != n {
		t.Fatalf("Len = %d, want %d", a.Len(), n)
	}
	if got, exact := a.Bytes(), layoutBytes(want); got != exact {
		t.Fatalf("Bytes = %d, want %d", got, exact)
	}
	if a.Bytes() > MaxBytes(uint64(n)) {
		t.Fatalf("Bytes = %d exceeds MaxBytes %d", a.Bytes(), MaxBytes(uint64(n)))
	}

	cur := a.NewCursor()
	var got isa.Inst
	for i := range want {
		if !cur.Next(&got) {
			t.Fatalf("cursor exhausted at %d", i)
		}
		if got != want[i] {
			t.Fatalf("instruction %d diverged:\n source %+v\n replay %+v", i, want[i], got)
		}
	}
	if cur.Next(&got) {
		t.Fatal("cursor yielded past the arena's end")
	}

	batched := a.NewCursor()
	chunks := []int{1, 3, 7, 64, 128, 1000}
	var replay []isa.Inst
	for i := 0; len(replay) < n; i++ {
		buf := make([]isa.Inst, chunks[i%len(chunks)])
		k := batched.NextBatch(buf)
		replay = append(replay, buf[:k]...)
		if k < len(buf) {
			break
		}
	}
	if len(replay) != n {
		t.Fatalf("NextBatch drained %d instructions, want %d", len(replay), n)
	}
	for i := range want {
		if replay[i] != want[i] {
			t.Fatalf("batched instruction %d diverged:\n source %+v\n replay %+v", i, want[i], replay[i])
		}
	}

	// Random access, backwards so no decode can lean on its predecessor.
	for i := n - 1; i >= 0; i-- {
		a.Inst(i, &got)
		if got != want[i] {
			t.Fatalf("Inst(%d) diverged:\n source %+v\n replay %+v", i, want[i], got)
		}
	}

	meta := a.Meta()
	for i := range want {
		in := &want[i]
		checks := []struct {
			name string
			bit  uint8
			want bool
		}{
			{"taken", MetaTaken, in.Taken},
			{"kernel", MetaKernel, in.Kernel},
			{"mem", MetaMem, in.Class.IsMem()},
			{"ctrl", MetaCtrl, in.Class.IsCtrl()},
		}
		for _, c := range checks {
			if got := meta[i]&c.bit != 0; got != c.want {
				t.Fatalf("instruction %d meta %s = %v, want %v", i, c.name, got, c.want)
			}
		}
		if a.PCs()[i] != in.PC || a.Targets()[i] != in.Addr|in.Target || a.Classes()[i] != uint8(in.Class) {
			t.Fatalf("instruction %d columns diverged from %+v", i, *in)
		}
	}
}

// TestMaxBytes pins the worst-case reservation and its saturation.
func TestMaxBytes(t *testing.T) {
	cases := []struct {
		n    uint64
		want int64
	}{
		{0, 8},
		{1, 28},
		{300_000, 6_000_008},
		{(math.MaxInt64 - 8) / 20, 9_223_372_036_854_775_788}, // the largest n that fits
		{(math.MaxInt64-8)/20 + 1, math.MaxInt64},
		{math.MaxUint64, math.MaxInt64},
	}
	for _, c := range cases {
		if got := MaxBytes(c.n); got != c.want {
			t.Errorf("MaxBytes(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

// TestMaterializeBounds covers truncation (n smaller than the stream) and
// early stream exhaustion (n larger).
func TestMaterializeBounds(t *testing.T) {
	prog := arenaTestProgram(300)
	if got := Materialize(NewSliceStream(prog), 100).Len(); got != 100 {
		t.Errorf("truncating Materialize kept %d instructions, want 100", got)
	}
	if got := Materialize(NewSliceStream(prog), 1000).Len(); got != 300 {
		t.Errorf("over-asking Materialize kept %d instructions, want 300", got)
	}
	// The batch path must land on identical contents.
	sliced := Materialize(NewSliceStream(prog), 300)
	var in isa.Inst
	cur := sliced.NewCursor()
	for i := 0; cur.Next(&in); i++ {
		if in != prog[i] {
			t.Fatalf("instruction %d diverged through the non-batch path", i)
		}
	}
}

// TestCursorDoesNotAllocate is the zero-alloc proof for the replay path:
// once the arena exists, streaming from it — scalar, batched, or via the
// direct decode the core's fetch stage uses — never touches the heap.
func TestCursorDoesNotAllocate(t *testing.T) {
	a := Materialize(NewSliceStream(arenaTestProgram(4096)), 4096)
	cur := a.NewCursor()
	var in isa.Inst
	if avg := testing.AllocsPerRun(1000, func() {
		if !cur.Next(&in) {
			cur = a.NewCursor()
		}
	}); avg != 0 {
		t.Errorf("Cursor.Next allocates %v objects/call; want 0", avg)
	}
	buf := make([]isa.Inst, 64)
	bcur := a.NewCursor()
	if avg := testing.AllocsPerRun(1000, func() {
		if bcur.NextBatch(buf) < len(buf) {
			bcur = a.NewCursor()
		}
	}); avg != 0 {
		t.Errorf("Cursor.NextBatch allocates %v objects/call; want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() { a.Inst(17, &in) }); avg != 0 {
		t.Errorf("Arena.Inst allocates %v objects/call; want 0", avg)
	}
}

// TestMaterializeRejectsUnusedOperand pins the operand-word rule: an arena
// keeps one operand per instruction, so an instruction that sets the field
// its class does not use cannot be replayed exactly and must not be
// captured — through the batch path or the scalar one. Nor may a class,
// register or size the packed word has no bits for.
func TestMaterializeRejectsUnusedOperand(t *testing.T) {
	cases := []struct {
		name string
		in   isa.Inst
	}{
		{"load with target", isa.Inst{PC: 0x40_0000, Class: isa.Load, Addr: 0x1000, Size: 8, Target: 0x40_0040}},
		{"store with target", isa.Inst{PC: 0x40_0000, Class: isa.Store, Addr: 0x1000, Size: 4, Target: 0x40_0040}},
		{"branch with addr", isa.Inst{PC: 0x40_0000, Class: isa.Branch, Target: 0x40_0040, Addr: 0x1000}},
		{"alu with addr", isa.Inst{PC: 0x40_0000, Class: isa.IntALU, Addr: 0x1000}},
		{"class 16", isa.Inst{PC: 0x40_0000, Class: 16}},
		{"class 255", isa.Inst{PC: 0x40_0000, Class: 255}},
		{"dest 64", isa.Inst{PC: 0x40_0000, Class: isa.IntALU, Dest: 64}},
		{"src1 64", isa.Inst{PC: 0x40_0000, Class: isa.IntALU, Src1: 64}},
		{"src2 255", isa.Inst{PC: 0x40_0000, Class: isa.IntALU, Src2: 255}},
		{"size 3", isa.Inst{PC: 0x40_0000, Class: isa.Load, Dest: 1, Addr: 0x1000, Size: 3}},
		{"size 16", isa.Inst{PC: 0x40_0000, Class: isa.Store, Addr: 0x1000, Size: 16}},
	}
	for _, c := range cases {
		prog := append(arenaTestProgram(20), c.in)
		for _, s := range []Stream{NewSliceStream(prog), scalarStream{NewSliceStream(prog)}} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Materialize(%T) accepted it", c.name, s)
					}
				}()
				Materialize(s, len(prog))
			}()
		}
	}
}

// scalarStream hides a stream's batch interface.
type scalarStream struct{ s Stream }

func (s scalarStream) Next(in *isa.Inst) bool { return s.s.Next(in) }
