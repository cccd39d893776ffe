package trace

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"portsim/internal/isa"
)

func sampleInsts() []isa.Inst {
	return []isa.Inst{
		{PC: 0x1000, Class: isa.IntALU, Dest: 3, Src1: 1, Src2: 2},
		{PC: 0x1004, Class: isa.Load, Dest: 4, Src1: 3, Addr: 0x8000, Size: 8},
		{PC: 0x1008, Class: isa.Store, Src1: 3, Src2: 4, Addr: 0x8008, Size: 4},
		{PC: 0x100c, Class: isa.Branch, Target: 0x1000, Taken: true},
		{PC: 0x1000, Class: isa.FPMul, Dest: 40, Src1: 33, Src2: 34, Kernel: true},
		{PC: 0x1004, Class: isa.Call, Target: 0x9000},
		{PC: 0x9000, Class: isa.Return, Target: 0x1008},
	}
}

func TestSliceStream(t *testing.T) {
	insts := sampleInsts()
	s := NewSliceStream(insts)
	var in isa.Inst
	for i := range insts {
		if !s.Next(&in) {
			t.Fatalf("stream ended at %d", i)
		}
		if in != insts[i] {
			t.Fatalf("inst %d = %+v, want %+v", i, in, insts[i])
		}
	}
	if s.Next(&in) {
		t.Error("stream yielded past the end")
	}
}

func TestLimit(t *testing.T) {
	s := NewLimit(NewSliceStream(sampleInsts()), 3)
	var in isa.Inst
	n := 0
	for s.Next(&in) {
		n++
	}
	if n != 3 {
		t.Errorf("limited stream yielded %d, want 3", n)
	}
	// Limit larger than the stream just passes everything.
	s = NewLimit(NewSliceStream(sampleInsts()), 100)
	n = 0
	for s.Next(&in) {
		n++
	}
	if n != len(sampleInsts()) {
		t.Errorf("over-limit yielded %d", n)
	}
	// Zero limit yields nothing.
	s = NewLimit(NewSliceStream(sampleInsts()), 0)
	if s.Next(&in) {
		t.Error("zero limit yielded")
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	insts := sampleInsts()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range insts {
		if err := w.Write(&insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != uint64(len(insts)) {
		t.Errorf("Count = %d", w.Count())
	}
	r := NewReader(&buf)
	var in isa.Inst
	for i := range insts {
		if !r.Next(&in) {
			t.Fatalf("reader ended at %d: %v", i, r.Err())
		}
		if in != insts[i] {
			t.Errorf("inst %d = %+v, want %+v", i, in, insts[i])
		}
	}
	if r.Next(&in) {
		t.Error("reader yielded past the end")
	}
	if r.Err() != nil {
		t.Errorf("clean EOF reported error %v", r.Err())
	}
}

func TestWriterRejectsInvalid(t *testing.T) {
	w := NewWriter(&bytes.Buffer{})
	bad := isa.Inst{Class: isa.Load, Dest: 0, Addr: 0x1000, Size: 8} // load without dest
	if err := w.Write(&bad); err == nil {
		t.Error("invalid instruction written")
	}
}

func TestReaderRejectsGarbage(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("not a trace at all")))
	var in isa.Inst
	if r.Next(&in) {
		t.Error("garbage accepted")
	}
	if r.Err() == nil {
		t.Error("no error for garbage input")
	}
}

func TestReaderRejectsWrongVersion(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("PORTSIMTRC")
	buf.WriteByte(99)
	r := NewReader(&buf)
	var in isa.Inst
	if r.Next(&in) || r.Err() == nil {
		t.Error("wrong version accepted")
	}
}

func TestReaderTruncated(t *testing.T) {
	insts := sampleInsts()
	var buf bytes.Buffer
	w := NewWriter(&buf)
	for i := range insts {
		if err := w.Write(&insts[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Chop mid-record (a few bytes shy of the end).
	r := NewReader(bytes.NewReader(full[:len(full)-2]))
	var in isa.Inst
	n := 0
	for r.Next(&in) {
		n++
	}
	if r.Err() == nil {
		t.Error("truncation not reported")
	}
	if n >= len(insts) {
		t.Error("read every instruction from a truncated trace")
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	var in isa.Inst
	if r.Next(&in) {
		t.Error("empty trace yielded an instruction")
	}
	if r.Err() != nil {
		t.Errorf("empty trace errored: %v", r.Err())
	}
}

// TestBinaryRoundTripProperty: arbitrary valid instruction sequences survive
// the encode/decode round trip exactly.
func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(raw []uint64, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		insts := make([]isa.Inst, 0, len(raw))
		pc := uint64(0x10000)
		for _, v := range raw {
			var in isa.Inst
			in.PC = pc
			switch v % 5 {
			case 0:
				in.Class = isa.IntALU
				in.Dest = isa.Reg(1 + v%31)
				in.Src1 = isa.Reg(v % 32)
			case 1:
				in.Class = isa.Load
				in.Dest = isa.Reg(1 + v%31)
				in.Size = 1 << (v % 4)
				in.Addr = (v % (1 << 40)) &^ (uint64(in.Size) - 1)
			case 2:
				in.Class = isa.Store
				in.Size = 1 << (v % 4)
				in.Addr = (v % (1 << 40)) &^ (uint64(in.Size) - 1)
			case 3:
				in.Class = isa.Branch
				in.Target = v % (1 << 40)
				in.Taken = v%2 == 0
			case 4:
				in.Class = isa.FPAdd
				in.Dest = isa.Reg(33 + v%30)
				in.Src1 = isa.Reg(32 + v%32)
			}
			in.Kernel = rng.Intn(4) == 0
			if in.Validate() != nil {
				continue
			}
			insts = append(insts, in)
			pc = in.NextPC()
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i := range insts {
			if err := w.Write(&insts[i]); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		var in isa.Inst
		for i := range insts {
			if !r.Next(&in) || in != insts[i] {
				return false
			}
		}
		return !r.Next(&in) && r.Err() == nil
	}
	cfg := &quick.Config{MaxCount: 50}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestReaderTruncatedHeader(t *testing.T) {
	r := NewReader(bytes.NewReader([]byte("PORTSIM"))) // shorter than magic+version
	var in isa.Inst
	if r.Next(&in) || r.Err() == nil {
		t.Error("truncated header accepted")
	}
}

func TestReaderTruncatedRecordFields(t *testing.T) {
	// Build one valid record, then chop at every byte boundary: the reader
	// must fail cleanly (error or clean EOF at the header boundary), never
	// yield a corrupted instruction silently past the chop.
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := isa.Inst{PC: 0x1000, Class: isa.Load, Dest: 2, Addr: 0x8000, Size: 8}
	if err := w.Write(&in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	headerLen := len("PORTSIMTRC") + 1
	for cut := headerLen + 1; cut < len(full); cut++ {
		r := NewReader(bytes.NewReader(full[:cut]))
		var got isa.Inst
		if r.Next(&got) {
			t.Fatalf("cut at %d of %d yielded an instruction", cut, len(full))
		}
		if r.Err() == nil {
			t.Fatalf("cut at %d reported clean EOF mid-record", cut)
		}
	}
}

func TestReaderRejectsCorruptClass(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	in := isa.Inst{PC: 0x1000, Class: isa.IntALU, Dest: 2}
	if err := w.Write(&in); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	// Corrupt the class byte of the first record (flags byte is right
	// after the 11-byte header; class follows it).
	data[len("PORTSIMTRC")+1+1] = 0xee
	r := NewReader(bytes.NewReader(data))
	var got isa.Inst
	if r.Next(&got) || r.Err() == nil {
		t.Error("corrupt class accepted")
	}
}
