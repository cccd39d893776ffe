package workload

import (
	"bytes"
	"fmt"
	"testing"

	"portsim/internal/isa"
	"portsim/internal/trace"
)

// batchPatterns are the read patterns no stream may notice: one
// instruction at a time, a small odd batch, the core's 128-instruction
// chunk, a read-ahead block, and a mixed sequence that moves every batch
// edge.
var batchPatterns = []struct {
	name  string
	sizes []int
}{
	{"1", []int{1}},
	{"3", []int{3}},
	{"128", []int{128}},
	{"4096", []int{4096}},
	{"mixed", []int{1, 5, 128, 333, 4096, 7, 2}},
}

// readN reads up to n instructions of s in batches cycling through sizes,
// and stops at the first short count.
func readN(s trace.Stream, n int, sizes []int) []isa.Inst {
	out := make([]isa.Inst, n)
	got := 0
	for i := 0; got < n; i++ {
		want := min(sizes[i%len(sizes)], n-got)
		k := s.NextBatch(out[got : got+want])
		got += k
		if k < want {
			break
		}
	}
	return out[:got]
}

// generated is the per-instruction reference for a single-program
// stream: n instructions of New(prof, seed), one generator step each.
func generated(t *testing.T, prof Profile, seed int64, n int) []isa.Inst {
	t.Helper()
	g, err := New(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]isa.Inst, n)
	for i := range out {
		g.next(&out[i])
	}
	return out
}

// interleaved is the per-instruction reference for a multiprogram: n
// instructions of the live interleave, one reference step each.
func interleaved(t *testing.T, prof Profile, procs, quantum int, seed int64, n int) []isa.Inst {
	t.Helper()
	m, err := NewMultiprogram(prof, procs, quantum, seed)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]isa.Inst, n)
	for i := range out {
		if !m.next(&out[i]) {
			t.Fatalf("live interleave ended at %d", i)
		}
	}
	return out
}

// sameStream fails the test unless got is exactly want.
func sameStream(t *testing.T, what string, want, got []isa.Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d instructions, want %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: instruction %d diverged:\n reference %+v\n batched   %+v", what, i, want[i], got[i])
		}
	}
}

// TestNextBatchMatchesNext: batch size never changes a stream. Every
// production stream, read in batches of 1, 3, 128 and 4096 instructions
// and in one mixed sequence, yields exactly its per-instruction
// reference: the generator's own step for a generator, and for streams
// built from generated instructions (an arena cursor, a read-ahead, a
// slice, a trace file) the generator they were built from; the reference
// interleave for a multiprogram, live or over demand-sized cursors. The
// fault-injecting stream's row is TestFaultStreamBatchSizes in
// internal/experiments.
func TestNextBatchMatchesNext(t *testing.T) {
	const n = 20_000
	compress, _ := ByName("compress")
	const procs, quantum, seed = 4, 500, 42
	single := generated(t, compress, seed, n)
	multi := interleaved(t, compress, procs, quantum, seed, n)
	var file bytes.Buffer
	w := trace.NewWriter(&file)
	for i := range single {
		if err := w.Write(&single[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	type stream struct {
		name string
		ref  []isa.Inst
		open func(t *testing.T) trace.Stream
	}
	streams := []stream{
		{"multiprogram/live", multi, func(t *testing.T) trace.Stream {
			m, err := NewMultiprogram(compress, procs, quantum, seed)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}},
		{"multiprogram/replay", multi, func(t *testing.T) trace.Stream {
			return demandSizedReplay(t, compress, procs, quantum, seed, n)
		}},
		{"cursor", single, func(t *testing.T) trace.Stream {
			return trace.Materialize(mustNew(t, compress, seed), n).NewCursor()
		}},
		{"read-ahead", single, func(t *testing.T) trace.Stream {
			r := trace.NewReadAhead(mustNew(t, compress, seed))
			r.Start(n)
			t.Cleanup(r.Stop)
			return r
		}},
		{"slice", single, func(t *testing.T) trace.Stream { return trace.NewSliceStream(single) }},
		{"reader", single, func(t *testing.T) trace.Stream { return trace.NewReader(bytes.NewReader(file.Bytes())) }},
	}
	for _, name := range Names() {
		prof, _ := ByName(name)
		for _, seed := range []int64{1, 987654321} {
			streams = append(streams, stream{fmt.Sprintf("generator/%s/%d", name, seed), generated(t, prof, seed, n),
				func(t *testing.T) trace.Stream { return mustNew(t, prof, seed) }})
		}
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			for _, p := range batchPatterns {
				sameStream(t, "batches of "+p.name, s.ref, readN(s.open(t), n, p.sizes))
			}
		})
	}
}

// TestMultiprogramNextBatchMatchesNext checks the batched interleaver
// against the reference interleave, one instruction per step, for every
// multiprogramming level A6 runs and at the shortest quantum: each batch
// pattern, plus batches that end one short of, exactly at and one past a
// quantum's end.
func TestMultiprogramNextBatchMatchesNext(t *testing.T) {
	const n = 20_000
	prof, _ := ByName("compress")
	for _, procs := range []int{1, 2, 4, 8} {
		for _, quantum := range []int{MinQuantum, 2_000} {
			t.Run(fmt.Sprintf("procs=%d/quantum=%d", procs, quantum), func(t *testing.T) {
				want := interleaved(t, prof, procs, quantum, 7, n)
				for _, p := range batchPatterns {
					m, err := NewMultiprogram(prof, procs, quantum, 7)
					if err != nil {
						t.Fatal(err)
					}
					sameStream(t, "batches of "+p.name, want, readN(m, n, p.sizes))
				}
				m, err := NewMultiprogram(prof, procs, quantum, 7)
				if err != nil {
					t.Fatal(err)
				}
				got := make([]isa.Inst, 0, n)
				buf := make([]isa.Inst, 20*quantum+1)
				for i := 0; len(got) < n; i++ {
					k := min(max(m.left+i%3-1, 1), n-len(got))
					got = append(got, buf[:m.NextBatch(buf[:k])]...)
				}
				sameStream(t, "quantum edges", want, got)
			})
		}
	}
}

// FuzzMultiprogramBatches checks the batched interleave against the
// reference interleave for random levels, quanta, schedule seeds and
// batch-size sequences: each byte of sizes is one batch of 1 to 256
// instructions. The processes replay fixed arenas, since the interleave
// never looks inside an instruction it relocates.
func FuzzMultiprogramBatches(f *testing.F) {
	f.Add(uint8(3), uint16(0), int64(42), []byte{0, 2, 127, 255})
	f.Add(uint8(7), uint16(400), int64(7), []byte{99, 100, 101})
	f.Add(uint8(0), uint16(1900), int64(-1), []byte{})
	const n = 5_000
	prof, _ := ByName("compress")
	var arenas [8]*trace.Arena
	for i := range arenas {
		arenas[i] = trace.Materialize(mustNew(f, prof, int64(i)*SeedStride), n)
	}
	replay := func(t *testing.T, procs, quantum int, seed int64) *Multiprogram {
		cursors := make([]*trace.Cursor, procs)
		for i := range cursors {
			cursors[i] = arenas[i].NewCursor()
		}
		m, err := NewMultiprogramReplay(cursors, quantum, seed)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	f.Fuzz(func(t *testing.T, procs uint8, quantum uint16, seed int64, sizes []byte) {
		p, q := 1+int(procs%8), MinQuantum+int(quantum%2_000)
		batches := []int{128}
		if len(sizes) > 0 {
			batches = batches[:0]
			for _, b := range sizes {
				batches = append(batches, 1+int(b))
			}
		}
		ref := replay(t, p, q, seed)
		want := make([]isa.Inst, n)
		for i := range want {
			if !ref.next(&want[i]) {
				t.Fatalf("reference interleave ended at %d", i)
			}
		}
		sameStream(t, fmt.Sprintf("procs=%d quantum=%d batches %v", p, q, batches),
			want, readN(replay(t, p, q, seed), n, batches))
	})
}

func mustNew(t testing.TB, prof Profile, seed int64) *Generator {
	t.Helper()
	g, err := New(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	return g
}
