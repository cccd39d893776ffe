package experiments

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// arenaTestSpec is a small campaign that still covers both runner stream
// paths: single-program cells (F1's sweep) and the multiprogrammed
// interleave (A6), long enough at seed 42 for every A6 level to switch
// processes.
func arenaTestSpec(budget int64) Spec {
	return Spec{Workloads: []string{"compress"}, Insts: 20_000, Seed: 42, ArenaBudget: budget}
}

// runArenaCampaign renders the F1 and A6 tables for one arena budget.
func runArenaCampaign(t *testing.T, budget int64) (string, *Runner) {
	t.Helper()
	r := NewRunner(arenaTestSpec(budget))
	_, f1, err := F1PortCount(r)
	if err != nil {
		t.Fatalf("F1 (budget %d): %v", budget, err)
	}
	_, a6, err := A6Multiprogramming(r)
	if err != nil {
		t.Fatalf("A6 (budget %d): %v", budget, err)
	}
	return f1.String() + a6.String(), r
}

// TestTablesIdenticalArenasOnOff is the arena contract at the experiments
// layer: every rendered table must be byte-identical whether cells replay
// shared arenas (default budget), build private ones cell by cell (a
// budget with room for A6's per-process prefixes but not for a whole
// trace), or share none at all (off).
func TestTablesIdenticalArenasOnOff(t *testing.T) {
	want, withArenas := runArenaCampaign(t, 0)
	st, ok := withArenas.ArenaStats()
	if !ok {
		t.Fatal("arenas unexpectedly disabled at default budget")
	}
	if st.Builds == 0 || st.Hits == 0 {
		t.Fatalf("default-budget campaign did not share arenas: %+v", st)
	}

	off, disabled := runArenaCampaign(t, -1)
	if _, ok := disabled.ArenaStats(); ok {
		t.Fatal("ArenaStats reported ok on a disabled registry")
	}
	if off != want {
		t.Errorf("tables diverge between arenas on and off:\n--- arenas on ---\n%s\n--- arenas off ---\n%s", want, off)
	}

	// A budget one byte short of a whole trace's reservation: every
	// single-program cell, and A6's one-process level, must build its
	// trace privately, while the other A6 levels share per-process
	// prefixes.
	belowOneTrace := trace.MaxBytes(arenaTestSpec(0).Insts) - 1
	partial, partialRunner := runArenaCampaign(t, belowOneTrace)
	pst, _ := partialRunner.ArenaStats()
	if pst.Fallbacks == 0 || pst.Builds == 0 {
		t.Fatalf("expected both private and shared builds at %d bytes: %+v", belowOneTrace, pst)
	}
	if partial != want {
		t.Errorf("tables diverge under private builds:\n--- arenas on ---\n%s\n--- partial ---\n%s", want, partial)
	}
}

// compressArena materialises compress's n-instruction trace for seed.
func compressArena(t *testing.T, seed int64, n int) *trace.Arena {
	t.Helper()
	prof, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	gen, err := workload.New(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Materialize(gen, n)
}

// arenaBytes is the footprint of compress's n-instruction trace for seed.
func arenaBytes(t *testing.T, seed int64, n uint64) int64 {
	t.Helper()
	return compressArena(t, seed, int(n)).Bytes()
}

// TestArenaRegistrySharing pins the generate-once property: a sweep that
// simulates the same workload on many machines materialises its trace
// exactly once, and parallel execution neither duplicates builds nor
// changes the totals. A6's levels then add one prefix per extra process,
// however many of its cells start at once.
func TestArenaRegistrySharing(t *testing.T) {
	for _, parallel := range []int{1, 16} {
		spec := arenaTestSpec(0)
		spec.Parallel = parallel
		r := NewRunner(spec)
		if _, _, err := F1PortCount(r); err != nil {
			t.Fatal(err)
		}
		st, ok := r.ArenaStats()
		if !ok {
			t.Fatal("arenas disabled")
		}
		if st.Builds != 1 {
			t.Errorf("parallel=%d: F1 on one workload built %d arenas, want 1", parallel, st.Builds)
		}
		if st.Hits == 0 {
			t.Errorf("parallel=%d: no arena sharing recorded: %+v", parallel, st)
		}
		if st.Count != 1 || st.Bytes == 0 || st.Bytes > st.Budget {
			t.Errorf("parallel=%d: implausible residency: %+v", parallel, st)
		}
		if _, _, err := A6Multiprogramming(r); err != nil {
			t.Fatal(err)
		}
		// At 20000 instructions every one of A6's seven extra processes
		// supplies part of the interleave.
		if st, _ := r.ArenaStats(); st.Builds != 8 || st.Count != 8 {
			t.Errorf("parallel=%d: F1 and A6 built %d arenas and kept %d, want 8 of each", parallel, st.Builds, st.Count)
		}
	}
}

// hashedStream returns the hashed single-program stream of a workload.
func hashedStream(t *testing.T, name string) *streamSpec {
	t.Helper()
	ps := named(name).hashed()
	if ps.err != nil {
		t.Fatal(ps.err)
	}
	return &ps.streamSpec
}

// TestArenaRegistryPrivateBuild: with room for one arena, a second trace
// is built for its cell alone. The kept arena and the charged bytes do not
// change, the private arena replays the generator's trace, and the
// registry counts one shared build and one fallback.
func TestArenaRegistryPrivateBuild(t *testing.T) {
	s := hashedStream(t, "compress")
	const n = 1_000
	reg := newArenaRegistry(trace.MaxBytes(n))
	kept, err := reg.acquire(s, 1, n)
	if err != nil {
		t.Fatal(err)
	}
	want := ArenaStats{Budget: trace.MaxBytes(n), Count: 1, Bytes: arenaBytes(t, 1, n), Builds: 1}
	if st := reg.stats(); st != want {
		t.Fatalf("stats after the shared build: %+v, want %+v", st, want)
	}
	private, err := reg.acquire(s, 2, n)
	if err != nil {
		t.Fatal(err)
	}
	want.Fallbacks = 1
	if st := reg.stats(); st != want {
		t.Errorf("stats after the private build: %+v, want %+v", st, want)
	}
	replayPrefix(t, private, 2, n)
	replayPrefix(t, kept, 1, n)
}

// panickingCompress returns compress with a Random region of 2^64-1
// bytes, which hands rand.Int63n a negative bound: its generator panics on
// its first access to the region.
func panickingCompress() workload.Profile {
	prof, _ := workload.ByName("compress")
	prof.Regions = slices.Clone(prof.Regions)
	i := slices.IndexFunc(prof.Regions, func(r workload.Region) bool { return r.Pattern == workload.Random })
	prof.Regions[i].Size = math.MaxUint64
	return prof
}

// TestArenaBuildPanicReleasesWaiters: a shared build that panics still
// wakes the cells waiting on it, which fail with ErrCellPanic, and leaves
// nothing kept or charged, so no cell hangs and no budget stays reserved.
func TestArenaBuildPanicReleasesWaiters(t *testing.T) {
	ps := named("compress")
	ps.prof = panickingCompress()
	ps = ps.hashed()
	reg := newArenaRegistry(DefaultArenaBudget)
	const cells = 8
	errs := make(chan error, cells)
	for range cells {
		go func() {
			// runStream's boundary, in miniature.
			defer func() {
				if p := recover(); p != nil {
					errs <- fmt.Errorf("%w: %v", ErrCellPanic, p)
				}
			}()
			_, err := reg.acquire(&ps.streamSpec, 42, 1_000_000)
			errs <- err
		}()
	}
	for range cells {
		if err := <-errs; !errors.Is(err, ErrCellPanic) {
			t.Errorf("a cell of the panicking trace returned %v, want ErrCellPanic", err)
		}
	}
	if st := reg.stats(); st.Count != 0 || st.Bytes != 0 {
		t.Errorf("the panicked build left %d arenas and %d bytes charged", st.Count, st.Bytes)
	}
}

// replayPrefix drains n instructions from a cursor over a and checks
// them against a fresh compress generator for seed.
func replayPrefix(t *testing.T, a *trace.Arena, seed int64, n int) {
	t.Helper()
	prof, _ := workload.ByName("compress")
	gen, err := workload.New(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	want, got := make([]isa.Inst, n), make([]isa.Inst, n)
	gen.NextBatch(want)
	if k := a.NewCursor().NextBatch(got); k != n {
		t.Fatalf("cursor ended at %d of %d", k, n)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("instruction %d diverged:\n live   %+v\n replay %+v", i, want[i], got[i])
		}
	}
}

// TestArenaRegistryPrefixes pins the content-only key and the kept
// length: a longer arena serves a shorter request without a build, a
// request longer than the kept arena is built privately and leaves the
// kept one as it was, and a request for nothing touches the registry not
// at all.
func TestArenaRegistryPrefixes(t *testing.T) {
	s := hashedStream(t, "compress")
	reg := newArenaRegistry(DefaultArenaBudget)
	kept := arenaBytes(t, 1, 2_000)
	check := func(when string, hits, fallbacks uint64) {
		t.Helper()
		want := ArenaStats{Budget: DefaultArenaBudget, Count: 1, Bytes: kept, Builds: 1, Hits: hits, Fallbacks: fallbacks}
		if st := reg.stats(); st != want {
			t.Fatalf("%s: stats %+v, want %+v", when, st, want)
		}
	}
	acquire := func(n uint64) *trace.Arena {
		t.Helper()
		a, err := reg.acquire(s, 1, n)
		if err != nil {
			t.Fatalf("acquire(%d): %v", n, err)
		}
		return a
	}

	long := acquire(2_000)
	check("first build", 0, 0)
	mid := acquire(1_000)
	check("a shorter request replays the kept arena", 1, 0)
	longer := acquire(4_000)
	check("a longer request builds privately", 1, 1)
	again := acquire(2_000)
	check("the kept arena still serves its length", 2, 1)
	replayPrefix(t, long, 1, 2_000)
	replayPrefix(t, mid, 1, 1_000)
	replayPrefix(t, longer, 1, 4_000)
	replayPrefix(t, again, 1, 2_000)
	if acquire(0).NewCursor().NextBatch(make([]isa.Inst, 1)) != 0 {
		t.Error("a request for no instructions yielded one")
	}
	check("an empty request", 2, 1)
}

// TestShortCellFails plants an arena shorter than the campaign's budget
// under the key a cell replays: the cell's stream ends early, and the cell
// must fail naming the workload, the machine and both counts instead of
// rendering a truncated row.
func TestShortCellFails(t *testing.T) {
	const insts, planted = 5_000, 1_000
	r := NewRunner(Spec{Workloads: []string{"compress"}, Insts: insts, Seed: 42})
	s := hashedStream(t, "compress")
	gen, err := workload.New(s.prof, 42)
	if err != nil {
		t.Fatal(err)
	}
	short := trace.Materialize(gen, planted)
	key := arenaKey(s, 42)
	ready := make(chan struct{})
	close(ready)
	r.arenas.entries[key] = &arenaEntry{ready: ready, arena: short, n: insts, bytes: short.Bytes()}
	r.arenas.bytes += short.Bytes()

	m := config.Baseline()
	res, err := runCell(r, m, "compress")
	var ce *CellError
	if !errors.As(err, &ce) {
		t.Fatalf("short cell returned %v, %v; want a CellError", res, err)
	}
	for _, want := range []string{"compress", m.Name, fmt.Sprint(planted), fmt.Sprint(insts)} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %q", err, want)
		}
	}
}

// TestArenaRegistryHugeReservation: a cell whose trace may need more than
// any budget allows — even one whose byte count overflows an int64 — fails
// naming -arena-budget, for a single program and for an A6 multiprogram,
// before it counts a process demand or builds a trace.
func TestArenaRegistryHugeReservation(t *testing.T) {
	single := named("compress").hashed()
	streams := a6Plan(Spec{}).streams
	multi := streams[len(streams)-1].hashed()
	for _, n := range []uint64{math.MaxUint64, math.MaxInt64, 1 << 62, 1 << 29} {
		r := NewRunner(Spec{Workloads: []string{"compress"}, Insts: n, Seed: 42})
		for _, ps := range []planStream{single, multi} {
			if ps.err != nil {
				t.Fatal(ps.err)
			}
			_, err := r.openStream(&ps.streamSpec, new(trace.Cursor))
			if err == nil || !strings.Contains(err.Error(), "-arena-budget") {
				t.Errorf("%s at %d instructions: %v, want the ceiling error", ps.workload, n, err)
			}
		}
		if st, _ := r.ArenaStats(); st != (ArenaStats{Budget: DefaultArenaBudget}) {
			t.Errorf("stats after refused cells of %d instructions: %+v", n, st)
		}
		if len(r.demands) != 0 {
			t.Errorf("refused cells of %d instructions counted process demands", n)
		}
	}
}

// TestParseArenaBudget covers the flag grammar.
func TestParseArenaBudget(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"", 0, false},
		{"off", -1, false},
		{"OFF", -1, false},
		{"0", -1, false},
		{"256MiB", 256 << 20, false},
		{"1GiB", 1 << 30, false},
		{"2g", 2 << 30, false},
		{"64kb", 64_000, false},
		{"100", 100, false},
		{"1.5m", 3 << 19, false},
		{"12b", 12, false},
		{"banana", 0, true},
		{"-5m", 0, true},
		{"inf", 0, true},
		{"NaN", 0, true},
		{"1e30", 0, true},
	}
	for _, c := range cases {
		got, err := ParseArenaBudget(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseArenaBudget(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseArenaBudget(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseArenaBudget(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}
