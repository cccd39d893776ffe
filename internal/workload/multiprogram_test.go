package workload

import (
	"testing"

	"portsim/internal/isa"
	"portsim/internal/trace"
)

// NewMultiprogram builds the live multiprogrammed stream of `processes`
// instances of prof, switching every quantumMean instructions on average,
// with process i generated from seed+i*SeedStride: the reference that
// NewMultiprogramReplay over the same traces must reproduce.
func NewMultiprogram(prof Profile, processes, quantumMean int, seed int64) (*Multiprogram, error) {
	return newMultiprogram(processes, quantumMean, seed, func(i int) (trace.Stream, error) {
		return New(prof, seed+int64(i)*SeedStride)
	})
}

// next is the reference interleave: the multiprogram's next instruction,
// one process read of one instruction at a time, or false when the
// current process's stream has ended. NextBatch must reproduce it at
// every batch size.
func (m *Multiprogram) next(in *isa.Inst) bool {
	if m.switchPending {
		m.switchPending = false
		*in = isa.Inst{PC: m.lastUserPC(), Class: isa.Syscall, Target: kernelCodeBase}
		return true
	}
	if m.left <= 0 && len(m.procs) > 1 {
		m.current = (m.current + 1) % len(m.procs)
		m.left = m.drawQuantum()
		m.switchPending = true
		return m.next(in)
	}
	if !read1(m.procs[m.current], in) {
		return false
	}
	m.relocate(in, m.offsets[m.current])
	m.left--
	return true
}

// read1 reads one instruction of s through a one-instruction batch.
func read1(s trace.Stream, in *isa.Inst) bool {
	var one [1]isa.Inst
	if s.NextBatch(one[:]) == 0 {
		return false
	}
	*in = one[0]
	return true
}

func TestMultiprogramValidation(t *testing.T) {
	p, _ := ByName("pmake")
	if _, err := NewMultiprogram(p, 0, 5000, 1); err == nil {
		t.Error("zero processes accepted")
	}
	if _, err := NewMultiprogram(p, 2, 10, 1); err == nil {
		t.Error("tiny quantum accepted")
	}
	bad := p
	bad.CodeBlocks = 0
	if _, err := NewMultiprogram(bad, 2, 5000, 1); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestMultiprogramSingleProcessMatchesGenerator(t *testing.T) {
	p, _ := ByName("compress")
	m, err := NewMultiprogram(p, 1, 5000, 42)
	if err != nil {
		t.Fatal(err)
	}
	g, err := New(p, 42)
	if err != nil {
		t.Fatal(err)
	}
	var a, b isa.Inst
	for i := 0; i < 20000; i++ {
		if !read1(m, &a) {
			t.Fatal("stream ended")
		}
		g.next(&b)
		if a != b {
			t.Fatalf("inst %d: single-process multiprogram diverged from the raw generator", i)
		}
	}
}

func TestMultiprogramSwitchesAndRelocates(t *testing.T) {
	p, _ := ByName("compress")
	m, err := NewMultiprogram(p, 4, 2000, 7)
	if err != nil {
		t.Fatal(err)
	}
	var in isa.Inst
	sawOffsets := map[uint64]bool{}
	syscallMarkers, switches := 0, 0
	for i := 0; i < 100000; i++ {
		cur := m.current
		if !read1(m, &in) {
			t.Fatal("stream ended")
		}
		if m.current != cur {
			switches++
		}
		if err := in.Validate(); err != nil {
			t.Fatalf("inst %d invalid: %v (%v)", i, err, in)
		}
		if !in.Kernel {
			sawOffsets[in.PC/processStride] = true
			if in.Class.IsMem() && in.Addr%processStride >= KernelCodeBase && in.Addr < 8<<30 {
				t.Fatalf("user access %#x inside kernel range", in.Addr)
			}
		} else {
			// Kernel code and data are shared: never relocated.
			if in.PC >= processStride {
				t.Fatalf("kernel PC %#x relocated", in.PC)
			}
			if in.Class.IsMem() && in.Addr >= processStride {
				t.Fatalf("kernel access %#x relocated", in.Addr)
			}
		}
		if in.Class == isa.Syscall && in.Target == KernelCodeBase {
			syscallMarkers++
		}
	}
	if len(sawOffsets) != 4 {
		t.Errorf("saw %d process address spaces, want 4", len(sawOffsets))
	}
	if switches < 20 {
		t.Errorf("only %d switches in 100k instructions at quantum 2000", switches)
	}
	if syscallMarkers < switches {
		t.Errorf("%d switch markers for %d switches", syscallMarkers, switches)
	}
}

func TestMultiprogramDeterminism(t *testing.T) {
	p, _ := ByName("database")
	collect := func(seed int64) []isa.Inst {
		m, err := NewMultiprogram(p, 3, 3000, seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]isa.Inst, 30000)
		if m.NextBatch(out) != len(out) {
			t.Fatal("ended")
		}
		return out
	}
	a, b := collect(5), collect(5)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d with equal seeds", i)
		}
	}
}

func TestMultiprogramProcessesUseDistinctSeeds(t *testing.T) {
	// Two processes of the same profile must not execute in lockstep: the
	// per-process seeds differ, so their user PCs (mod the address-space
	// stride) diverge quickly.
	p, _ := ByName("compress")
	m, err := NewMultiprogram(p, 2, 1000, 11)
	if err != nil {
		t.Fatal(err)
	}
	insts := make([]isa.Inst, 50000)
	m.NextBatch(insts)
	perProc := map[uint64][]uint64{}
	for _, in := range insts {
		if in.Kernel || in.Class == isa.Syscall {
			continue
		}
		proc := in.PC / processStride
		if len(perProc[proc]) < 200 {
			perProc[proc] = append(perProc[proc], in.PC%processStride)
		}
	}
	if len(perProc) != 2 {
		t.Fatalf("saw %d processes", len(perProc))
	}
	same := 0
	n := 200
	for i := 0; i < n; i++ {
		if perProc[0][i] == perProc[1][i] {
			same++
		}
	}
	if same == n {
		t.Error("processes executed identical instruction sequences (seeds not separated)")
	}
}

// countedProc counts the instructions a multiprogram pulls from one of its
// processes.
type countedProc struct {
	trace.Stream
	pulls uint64
}

func (c *countedProc) NextBatch(dst []isa.Inst) int {
	n := c.Stream.NextBatch(dst)
	c.pulls += uint64(n)
	return n
}

// TestProcessDemandMatchesLivePulls checks ProcessDemand against the
// instructions a live NewMultiprogram actually pulls from each generator
// while emitting n instructions one at a time, for budgets below one mean
// quantum, off the 128-instruction refill grain, and at the campaign
// benchmark's and the full campaign's lengths.
func TestProcessDemandMatchesLivePulls(t *testing.T) {
	const quantum = 5_000
	prof, _ := ByName("compress")
	for _, procs := range []int{1, 2, 3, 8} {
		for _, seed := range []int64{1, 7, 42} {
			for _, n := range []uint64{quantum - 1_000, 12_345, 40_000, 300_000} {
				m, err := NewMultiprogram(prof, procs, quantum, seed)
				if err != nil {
					t.Fatal(err)
				}
				counted := make([]*countedProc, procs)
				for i, p := range m.procs {
					counted[i] = &countedProc{Stream: p}
					m.procs[i] = counted[i]
				}
				var in isa.Inst
				var switches uint64
				for range n {
					cur := m.current
					read1(m, &in)
					if m.current != cur {
						switches++
					}
				}
				demand, err := ProcessDemand(procs, quantum, seed, n)
				if err != nil {
					t.Fatal(err)
				}
				var sum uint64
				for i, c := range counted {
					if demand[i] != c.pulls {
						t.Errorf("procs=%d seed=%d n=%d: process %d demand %d, live pulls %d",
							procs, seed, n, i, demand[i], c.pulls)
					}
					sum += c.pulls
				}
				if sum+switches != n {
					t.Errorf("procs=%d seed=%d n=%d: %d pulls and %d switch markers do not make %d instructions",
						procs, seed, n, sum, switches, n)
				}
			}
		}
	}
	if _, err := ProcessDemand(0, quantum, 1, 10); err == nil {
		t.Error("ProcessDemand accepted zero processes")
	}
	if _, err := ProcessDemand(2, 10, 1, 10); err == nil {
		t.Error("ProcessDemand accepted a tiny quantum")
	}
}
