package profile

import (
	"strings"
	"testing"

	"portsim/internal/isa"
	"portsim/internal/workload"
)

func TestObserveCounts(t *testing.T) {
	a := New(Options{})
	insts := []isa.Inst{
		{PC: 0x1000, Class: isa.IntALU, Dest: 1},
		{PC: 0x1004, Class: isa.Load, Dest: 2, Addr: 0x8000, Size: 8},
		{PC: 0x1008, Class: isa.Load, Dest: 3, Addr: 0x8008, Size: 4, Kernel: true},
		{PC: 0x100c, Class: isa.Store, Src1: 2, Addr: 0x9000, Size: 2},
		{PC: 0x1010, Class: isa.Branch, Target: 0x1000, Taken: true},
		{PC: 0x1000, Class: isa.Branch, Target: 0x1000, Taken: false},
	}
	for i := range insts {
		a.Observe(&insts[i])
	}
	if a.Insts != 6 || a.Kernel != 1 {
		t.Errorf("insts=%d kernel=%d", a.Insts, a.Kernel)
	}
	if a.Loads != 2 || a.Stores != 1 || a.MemRefs != 3 {
		t.Errorf("loads=%d stores=%d", a.Loads, a.Stores)
	}
	if a.BytesRead != 12 || a.BytesStored != 2 {
		t.Errorf("bytes read=%d stored=%d", a.BytesRead, a.BytesStored)
	}
	if a.Branches != 2 || a.TakenBranches != 1 {
		t.Errorf("branches=%d taken=%d", a.Branches, a.TakenBranches)
	}
	if got := a.TakenRate(); got != 0.5 {
		t.Errorf("TakenRate = %v", got)
	}
	if got := a.MemFrac(); got != 0.5 {
		t.Errorf("MemFrac = %v", got)
	}
	if got := a.KernelFrac(); got != 1.0/6.0 {
		t.Errorf("KernelFrac = %v", got)
	}
}

func TestChunkAdjacency(t *testing.T) {
	a := New(Options{ChunkSizes: []uint64{32}})
	addrs := []uint64{0x100, 0x108, 0x110, 0x200, 0x208}
	for _, addr := range addrs {
		in := isa.Inst{PC: 0x1000, Class: isa.Load, Dest: 1, Addr: addr, Size: 8}
		a.Observe(&in)
	}
	// Pairs: (100,108)=same, (108,110)=same, (110,200)=diff, (200,208)=same.
	if got := a.ChunkAdjacency(32); got != 0.75 {
		t.Errorf("ChunkAdjacency = %v, want 0.75", got)
	}
	if got := a.ChunkAdjacency(128); got != 0 {
		t.Errorf("untracked chunk size returned %v", got)
	}
}

func TestFootprint(t *testing.T) {
	a := New(Options{LineBytes: 32, PageBytes: 4096})
	for _, addr := range []uint64{0x0, 0x8, 0x20, 0x1000, 0x2000} {
		in := isa.Inst{PC: 0x1000, Class: isa.Store, Addr: addr, Size: 8}
		a.Observe(&in)
	}
	if got := a.FootprintLines(); got != 4 { // lines 0x0, 0x20, 0x1000, 0x2000
		t.Errorf("FootprintLines = %d, want 4", got)
	}
	if got := a.FootprintBytes(); got != 128 {
		t.Errorf("FootprintBytes = %d", got)
	}
	if got := a.FootprintPages(); got != 3 { // pages 0, 1, 2
		t.Errorf("FootprintPages = %d, want 3", got)
	}
}

func TestConsumeAndReport(t *testing.T) {
	p, _ := workload.ByName("eqntott")
	g, err := workload.New(p, 3)
	if err != nil {
		t.Fatal(err)
	}
	a := New(Options{})
	n := a.Consume(g, 50_000)
	if n != 50_000 || a.Insts != 50_000 {
		t.Fatalf("consumed %d", n)
	}
	out := a.Report("eqntott profile")
	for _, frag := range []string{"memory references", "adjacency @32B", "footprint", "instruction mix", "load"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report missing %q", frag)
		}
	}
}

// TestGeneratorsMatchIntendedLocality validates the synthetic workloads
// through the analytics: sequential workloads must show far higher chunk
// adjacency than pointer-chasing ones, and OS-heavy ones a larger page
// footprint per instruction.
func TestGeneratorsMatchIntendedLocality(t *testing.T) {
	analyse := func(name string) *Analysis {
		p, _ := workload.ByName(name)
		g, err := workload.New(p, 9)
		if err != nil {
			t.Fatal(err)
		}
		a := New(Options{})
		a.Consume(g, 100_000)
		return a
	}
	eq := analyse("eqntott")
	rt := analyse("raytrace")
	if eq.ChunkAdjacency(32) <= rt.ChunkAdjacency(32) {
		t.Errorf("adjacency: eqntott %.3f <= raytrace %.3f",
			eq.ChunkAdjacency(32), rt.ChunkAdjacency(32))
	}
	db := analyse("database")
	if db.FootprintPages() <= eq.FootprintPages() {
		t.Errorf("database pages %d <= eqntott pages %d",
			db.FootprintPages(), eq.FootprintPages())
	}
	pm := analyse("pmake")
	if pm.KernelFrac() < 0.2 {
		t.Errorf("pmake kernel fraction %.3f", pm.KernelFrac())
	}
}

func TestEmptyAnalysis(t *testing.T) {
	a := New(Options{})
	if a.MemFrac() != 0 || a.TakenRate() != 0 || a.KernelFrac() != 0 ||
		a.ChunkAdjacency(32) != 0 {
		t.Error("empty analysis returned non-zero rates")
	}
}
