package cpu

import (
	"bytes"
	"testing"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// arenaFor materialises a (profile, seed) trace exactly insts instructions
// long, as the runner does: fetch never asks past the budget, so the cursor
// never reports exhaustion inside it.
func arenaFor(t *testing.T, name string, seed int64, insts uint64) *trace.Arena {
	t.Helper()
	gen, err := workload.New(mustProfile(t, name), seed)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Materialize(gen, int(insts))
}

// TestRunCursorMatchesGenerator is the core-level byte-identity guarantee
// of arena replay: simulating from an arena cursor exactly as long as the
// budget must produce the identical Result, counter for counter, as
// simulating the endless live generator. Covered machines include the
// wrong-path-fetch model, whose stall-time I-cache pollution depends on
// exact group endings. Each machine's case is named noskip: the core steps
// every cycle and never jumps the clock ahead.
func TestRunCursorMatchesGenerator(t *testing.T) {
	const insts = 15_000
	wrongPath := config.Baseline()
	wrongPath.Name = "wrong-path"
	wrongPath.Core.WrongPathFetch = true
	machines := []config.Machine{config.Baseline(), config.BestSingle(), config.DualPort(), wrongPath}
	opts := Options{
		MaxInstructions: insts,
		DeadlineCycles:  DeadlineFor(insts),
		StallCycles:     DefaultStallCycles,
	}
	for _, m := range machines {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Run("noskip", func(t *testing.T) {
				for _, wl := range []string{"compress", "database"} {
					gen, err := workload.New(mustProfile(t, wl), 42)
					if err != nil {
						t.Fatal(err)
					}
					liveCore, err := New(&m, gen)
					if err != nil {
						t.Fatal(err)
					}
					live, err := liveCore.Run(opts)
					if err != nil {
						t.Fatal(err)
					}
					cursorCore, err := New(&m, arenaFor(t, wl, 42, insts).NewCursor())
					if err != nil {
						t.Fatal(err)
					}
					replay, err := cursorCore.Run(opts)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, wl, live, replay)
				}
			})
		})
	}
}

// TestBatchedMatchesNextOnly pins the front end's one read path for a
// stream that produces one instruction per step: one trace replayed from
// an arena cursor, which decodes a whole chunk per NextBatch, and from a
// trace file through trace.Reader, whose NextBatch decodes one record per
// step, must produce the identical Result, counter for counter. As in
// TestRunCursorMatchesGenerator, each machine's case runs as noskip.
func TestBatchedMatchesNextOnly(t *testing.T) {
	const insts = 15_000
	wrongPath := config.Baseline()
	wrongPath.Name = "wrong-path"
	wrongPath.Core.WrongPathFetch = true
	opts := Options{
		MaxInstructions: insts,
		DeadlineCycles:  DeadlineFor(insts),
		StallCycles:     DefaultStallCycles,
	}
	for _, m := range []config.Machine{config.Baseline(), config.BestSingle(), wrongPath} {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			t.Run("noskip", func(t *testing.T) {
				for _, wl := range []string{"compress", "database"} {
					a := arenaFor(t, wl, 42, insts)
					all := make([]isa.Inst, insts)
					a.NewCursor().NextBatch(all)
					var file bytes.Buffer
					w := trace.NewWriter(&file)
					for i := range all {
						if err := w.Write(&all[i]); err != nil {
							t.Fatal(err)
						}
					}
					if err := w.Flush(); err != nil {
						t.Fatal(err)
					}
					batchedCore, err := New(&m, a.NewCursor())
					if err != nil {
						t.Fatal(err)
					}
					steppedCore, err := New(&m, trace.NewReader(bytes.NewReader(file.Bytes())))
					if err != nil {
						t.Fatal(err)
					}
					batched, err := batchedCore.Run(opts)
					if err != nil {
						t.Fatal(err)
					}
					stepped, err := steppedCore.Run(opts)
					if err != nil {
						t.Fatal(err)
					}
					compareResults(t, wl, batched, stepped)
				}
			})
		})
	}
}

// compareResults demands exact equality of every reported number.
func compareResults(t *testing.T, what string, want, got *Result) {
	t.Helper()
	type pair struct {
		name      string
		want, got uint64
	}
	pairs := []pair{
		{"cycles", want.Cycles, got.Cycles},
		{"instructions", want.Instructions, got.Instructions},
		{"user insts", want.UserInsts, got.UserInsts},
		{"kernel insts", want.KernelInsts, got.KernelInsts},
		{"loads", want.Loads, got.Loads},
		{"stores", want.Stores, got.Stores},
		{"branches", want.Branches, got.Branches},
		{"mispredicts", want.Mispredicts, got.Mispredicts},
	}
	for _, p := range pairs {
		if p.want != p.got {
			t.Errorf("%s: %s diverged: want %d, got %d", what, p.name, p.want, p.got)
		}
	}
	if want.IPC != got.IPC {
		t.Errorf("%s: IPC diverged: want %v, got %v", what, want.IPC, got.IPC)
	}
	wantNames := want.Counters.Names()
	gotNames := got.Counters.Names()
	if len(wantNames) != len(gotNames) {
		t.Fatalf("%s: counter sets differ: want %v, got %v", what, wantNames, gotNames)
	}
	for i, name := range wantNames {
		if gotNames[i] != name {
			t.Fatalf("%s: counter order diverged at %d: want %q, got %q", what, i, name, gotNames[i])
		}
		wv := want.Counters.Get(name) //portlint:ignore counterhygiene name ranges over Counters.Names()
		gv := got.Counters.Get(name)  //portlint:ignore counterhygiene name ranges over Counters.Names()
		if wv != gv {
			t.Errorf("%s: counter %s diverged: want %d, got %d", what, name, wv, gv)
		}
	}
}

// TestResetCursorMatchesFresh extends the pooling contract to arena
// replay: a core built for a live generator and reset onto a cursor must
// behave exactly like a core constructed fresh on that cursor, and vice
// versa — cells of either stream kind share one pool.
func TestResetCursorMatchesFresh(t *testing.T) {
	const insts = 8_000
	m := config.Baseline()
	a := arenaFor(t, "compress", 42, insts)
	opts := Options{MaxInstructions: insts, DeadlineCycles: DeadlineFor(insts), StallCycles: DefaultStallCycles}

	fresh, err := New(&m, a.NewCursor())
	if err != nil {
		t.Fatal(err)
	}
	want, err := fresh.Run(opts)
	if err != nil {
		t.Fatal(err)
	}

	gen, err := workload.New(mustProfile(t, "eqntott"), 7)
	if err != nil {
		t.Fatal(err)
	}
	pooled, err := New(&m, gen)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := pooled.Run(opts); err != nil {
		t.Fatal(err)
	}
	if err := pooled.Reset(a.NewCursor()); err != nil {
		t.Fatal(err)
	}
	got, err := pooled.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "reset-to-cursor", want, got)

	// And back: a cursor-born core reset onto a live generator must match a
	// generator-fresh core.
	gen2, err := workload.New(mustProfile(t, "compress"), 42)
	if err != nil {
		t.Fatal(err)
	}
	genFresh, err := New(&m, gen2)
	if err != nil {
		t.Fatal(err)
	}
	wantGen, err := genFresh.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	gen3, err := workload.New(mustProfile(t, "compress"), 42)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Reset(gen3); err != nil {
		t.Fatal(err)
	}
	gotGen, err := fresh.Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	compareResults(t, "reset-to-generator", wantGen, gotGen)
}

// TestStepDoesNotAllocateWithCursor is the zero-alloc proof for arena
// replay: steady-state cycles fetching from an arena cursor, through the
// core's NextBatch refills, never touch the heap.
func TestStepDoesNotAllocateWithCursor(t *testing.T) {
	for _, m := range []config.Machine{config.Baseline(), config.BestSingle()} {
		m := m
		t.Run(m.Name, func(t *testing.T) {
			gen, err := workload.New(mustProfile(t, "compress"), 42)
			if err != nil {
				t.Fatal(err)
			}
			a := trace.Materialize(gen, 400_000)
			c, err := New(&m, a.NewCursor())
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 20_000; i++ {
				c.step()
			}
			if avg := testing.AllocsPerRun(2000, c.step); avg != 0 {
				t.Errorf("step with arena cursor allocates %v objects/cycle; want 0", avg)
			}
		})
	}
}
