package workload

import (
	"fmt"
	"testing"

	"portsim/internal/isa"
	"portsim/internal/trace"
)

// TestArenaCursorMatchesGenerator is the golden identity behind the shared
// trace arenas: for every profile, across seeds and materialisation
// budgets, a cursor over trace.Materialize(New(prof, seed)), read at every
// batch pattern, must replay instruction-for-instruction what a fresh
// generator produces one step at a time. This is the property that lets a
// sweep generate each (profile, seed) trace once and replay it per cell
// without perturbing a single emitted number.
func TestArenaCursorMatchesGenerator(t *testing.T) {
	for _, name := range Names() {
		for _, seed := range []int64{1, 42, 987654321} {
			for _, n := range []int{1_000, 20_000} {
				prof, ok := ByName(name)
				if !ok {
					t.Fatalf("workload %q vanished", name)
				}
				a := trace.Materialize(mustNew(t, prof, seed), n)
				if a.Len() != n {
					t.Fatalf("%s/%d: materialised %d instructions, want %d", name, seed, a.Len(), n)
				}
				want := generated(t, prof, seed, n)
				for _, p := range batchPatterns {
					sameStream(t, fmt.Sprintf("%s/%d/n=%d, batches of %s", name, seed, n, p.name),
						want, readN(a.NewCursor(), n, p.sizes))
				}
			}
		}
	}
}

// demandSizedReplay builds the A6 replay of n instructions: per-process
// arena cursors, each exactly as long as the process's ProcessDemand,
// interleaved by NewMultiprogramReplay. One instruction less anywhere
// ends the replay early.
func demandSizedReplay(t *testing.T, prof Profile, procs, quantum int, seed int64, n uint64) *Multiprogram {
	t.Helper()
	demand, err := ProcessDemand(procs, quantum, seed, n)
	if err != nil {
		t.Fatalf("ProcessDemand: %v", err)
	}
	cursors := make([]*trace.Cursor, procs)
	for i := range cursors {
		cursors[i] = trace.Materialize(mustNew(t, prof, seed+int64(i)*SeedStride), int(demand[i])).NewCursor()
	}
	replay, err := NewMultiprogramReplay(cursors, quantum, seed)
	if err != nil {
		t.Fatalf("NewMultiprogramReplay: %v", err)
	}
	return replay
}

// TestMultiprogramReplayIdentity pins the multiprogram interleave contract:
// replaying per-process arena cursors, each exactly as long as the
// process's ProcessDemand, through NewMultiprogramReplay — the quantum
// schedule, the injected context-switch markers, the address-space
// relocation — produces the identical stream to the live NewMultiprogram
// generators, for every multiprogramming level the A6 experiment runs.
// Both are read in the core's 128-instruction chunks.
func TestMultiprogramReplayIdentity(t *testing.T) {
	const n = 30_000
	prof, ok := ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	chunk := []int{128}
	for _, procs := range []int{1, 2, 4, 8} {
		for _, quantum := range []int{500, 5_000} {
			t.Run(fmt.Sprintf("procs=%d/quantum=%d", procs, quantum), func(t *testing.T) {
				live, err := NewMultiprogram(prof, procs, quantum, 42)
				if err != nil {
					t.Fatalf("NewMultiprogram: %v", err)
				}
				replay := demandSizedReplay(t, prof, procs, quantum, 42, n)
				sameStream(t, "replay", readN(live, n, chunk), readN(replay, n, chunk))
				if live.current != replay.current || live.left != replay.left {
					t.Errorf("schedule diverged: live process %d with %d left, replay %d with %d",
						live.current, live.left, replay.current, replay.left)
				}
			})
		}
	}
}

// TestMultiprogramReplayEndsCleanly: a replay over finite cursors must
// report exhaustion (a short NextBatch, then nothing) instead of emitting
// garbage when the current process's trace runs dry.
func TestMultiprogramReplayEndsCleanly(t *testing.T) {
	prof, ok := ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	cur := trace.Materialize(mustNew(t, prof, 7), 500).NewCursor()
	replay, err := NewMultiprogramReplay([]*trace.Cursor{cur}, 1000, 7)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]isa.Inst, 600)
	if got := replay.NextBatch(buf); got != 500 {
		t.Fatalf("NextBatch over a 500-instruction replay returned %d", got)
	}
	if got := replay.NextBatch(buf); got != 0 {
		t.Fatalf("NextBatch returned %d instructions past exhaustion", got)
	}
}
