package trace_test

import (
	"runtime"
	"testing"
	"time"

	"portsim/internal/isa"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// generator returns a fresh built-in workload generator; equal calls
// yield equal streams.
func generator(t *testing.T) *workload.Generator {
	t.Helper()
	prof, ok := workload.ByName("database")
	if !ok {
		t.Fatal("database profile missing")
	}
	g, err := workload.New(prof, 42)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// readAll drains r through NextBatch calls of len(dst), and every third
// call of one instruction, checking NextBatch's short-count contract.
func readAll(t *testing.T, r *trace.ReadAhead, dst []isa.Inst) []isa.Inst {
	t.Helper()
	var got []isa.Inst
	for call := 0; ; call++ {
		b := dst
		if call%3 == 2 {
			b = dst[:1]
		}
		n := r.NextBatch(b)
		got = append(got, b[:n]...)
		if n < len(b) {
			if r.NextBatch(dst) != 0 {
				t.Fatal("NextBatch yielded after a short count")
			}
			return got
		}
	}
}

// TestReadAheadYieldsSource: a read-ahead started for limit yields
// exactly the source's first limit instructions, or all of a shorter
// source, at every ring boundary and with reads shorter and longer than a
// block.
func TestReadAheadYieldsSource(t *testing.T) {
	block := trace.ReadAheadBlock
	limits := []int{0, 1, block - 1, block, block + 1,
		5*block + 17, // wraps the ring
	}
	want := make([]isa.Inst, limits[len(limits)-1])
	generator(t).NextBatch(want)
	short := want[:block+block/2]
	for _, limit := range limits {
		for _, dstLen := range []int{100, block + 300} {
			dst := make([]isa.Inst, dstLen)

			r := trace.NewReadAhead(generator(t))
			r.Start(uint64(limit))
			got := readAll(t, r, dst)
			r.Stop()
			checkPrefix(t, "generator", limit, dstLen, got, want[:limit])

			// A source shorter than the limit ends the stream early.
			r = trace.NewReadAhead(trace.NewSliceStream(short))
			r.Start(uint64(limit) + uint64(len(short)))
			got = readAll(t, r, dst)
			r.Stop()
			checkPrefix(t, "short slice", limit, dstLen, got, short)
		}
	}
}

func checkPrefix(t *testing.T, src string, limit, dstLen int, got, want []isa.Inst) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s, limit %d, reads of %d: got %d instructions, want %d", src, limit, dstLen, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s, limit %d, reads of %d: instruction %d = %+v, want %+v", src, limit, dstLen, i, got[i], want[i])
		}
	}
}

// TestReadAheadStopMidStream: Stop ends a producer that has almost all of
// its budget left after at most the block it is filling, leaves no
// goroutine behind, and may be repeated.
func TestReadAheadStopMidStream(t *testing.T) {
	base := runtime.NumGoroutine()
	r := trace.NewReadAhead(generator(t))
	r.Start(1 << 40)
	dst := make([]isa.Inst, 128)
	for range 10 {
		if r.NextBatch(dst) != len(dst) {
			t.Fatal("endless read-ahead came up short")
		}
	}
	start := time.Now()
	r.Stop()
	if d := time.Since(start); d > time.Second {
		t.Errorf("Stop took %v", d)
	}
	r.Stop()
	waitGoroutines(t, base)
}

// waitGoroutines polls until the goroutine count is back to base: a
// producer that has signalled its exit may not have been reaped yet.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}
