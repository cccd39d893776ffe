package experiments

import (
	"fmt"
	"strings"
	"testing"

	"portsim/internal/config"
	"portsim/internal/cpu"
	"portsim/internal/diag"
	"portsim/internal/isa"
)

// TestFaultStreamBatchSizes is the fault-injecting stream's row of the
// batch-size table (TestNextBatchMatchesNext in internal/workload): read
// in batches of 1, 3, 128 and 4096 instructions and in one mixed
// sequence, a panic-armed stream whose fault lies past the read yields
// exactly the cursor it wraps, and a badinst-armed one differs from it in
// instruction After+1 alone.
func TestFaultStreamBatchSizes(t *testing.T) {
	const n = 6_000
	a := compressArena(t, 42, n)
	clean := make([]isa.Inst, n)
	a.NewCursor().NextBatch(clean)
	poisoned := append([]isa.Inst(nil), clean...)
	poisoned[1_000].Class, poisoned[1_000].Size = isa.Store, 0
	cases := []struct {
		fault *Fault
		want  []isa.Inst
	}{
		{&Fault{Mode: FaultPanic, Workload: "compress", After: n}, clean},
		{&Fault{Mode: FaultBadInst, Workload: "compress", After: 1_000}, poisoned},
	}
	for _, c := range cases {
		for _, sizes := range [][]int{{1}, {3}, {128}, {4096}, {1, 5, 128, 333, 4096, 7, 2}} {
			s := c.fault.wrap(a.NewCursor())
			got := make([]isa.Inst, 0, n)
			for i := 0; len(got) < n; i++ {
				buf := make([]isa.Inst, min(sizes[i%len(sizes)], n-len(got)))
				k := s.NextBatch(buf)
				got = append(got, buf[:k]...)
				if k < len(buf) {
					break
				}
			}
			if len(got) != n {
				t.Fatalf("%s, batches of %v: %d instructions, want %d", c.fault, sizes, len(got), n)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Fatalf("%s, batches of %v: instruction %d = %+v, want %+v", c.fault, sizes, i, got[i], c.want[i])
				}
			}
		}
	}
}

// TestFaultAtChunkEdges pins where a stream fault lands against the core's
// cpu.StreamChunk pulls, at the edges of its first three: badinst corrupts
// exactly instruction After+1, the first to fail at commit, and panic
// fires in the pull that reaches that instruction, when fetch has taken
// every instruction of the earlier pulls and none of its own.
func TestFaultAtChunkEdges(t *testing.T) {
	const insts = 2_000
	a := compressArena(t, 42, insts)
	m := config.Baseline()
	for _, after := range []uint64{0, 126, 127, 128, 255, 256} {
		for _, mode := range []FaultMode{FaultBadInst, FaultPanic} {
			f := &Fault{Mode: mode, Workload: "compress", After: after}
			c, err := cpu.New(&m, f.wrap(a.NewCursor()))
			if err != nil {
				t.Fatal(err)
			}
			rec := diag.NewRecorder(1 << 16)
			msg := func() (msg string) {
				defer func() { msg = fmt.Sprint(recover()) }()
				if _, err := c.Run(cpu.Options{MaxInstructions: insts, DeadlineCycles: cpu.DeadlineFor(insts), StallCycles: cpu.DefaultStallCycles, Recorder: rec}); err != nil {
					t.Fatalf("%s: %v", f, err)
				}
				return
			}()
			var fetched, committed uint64
			for _, e := range rec.Events() {
				switch e.Kind {
				case diag.EventFetch:
					fetched = max(fetched, e.Seq)
				case diag.EventCommit:
					committed = max(committed, e.Seq)
				}
			}
			switch mode {
			case FaultBadInst:
				if !strings.Contains(msg, "store size 0 unsupported") || committed != after {
					t.Errorf("%s: panicked %q after committing %d instructions; want the store-size panic after %d",
						f, msg, committed, after)
				}
			case FaultPanic:
				if pulled := after / cpu.StreamChunk * cpu.StreamChunk; !strings.Contains(msg, "injected stream panic") || fetched != pulled {
					t.Errorf("%s: panicked %q after fetching %d instructions; want the injected panic after %d",
						f, msg, fetched, pulled)
				}
			}
		}
	}
}
