package experiments

import (
	"errors"
	"fmt"
	"math"
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

// TestTablesIdenticalArenasOnOff is the tentpole's hard constraint at the
// experiments layer: every rendered table must be byte-identical whether
// cells replay shared arenas (default budget), fall back to live
// generation cell by cell (a budget big enough for single-program arenas
// but not all multiprogram ones), or never see an arena at all (disabled).
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
	// single-program cell, and A6's one-process level, must fall back,
	// while the other A6 levels replay per-process prefixes.
	belowOneTrace := trace.MaxBytes(arenaTestSpec(0).Insts) - 1
	partial, partialRunner := runArenaCampaign(t, belowOneTrace)
	pst, _ := partialRunner.ArenaStats()
	if pst.Fallbacks == 0 || pst.Builds == 0 {
		t.Fatalf("expected both fallbacks and replays at %d bytes: %+v", belowOneTrace, pst)
	}
	if partial != want {
		t.Errorf("tables diverge under partial fallback:\n--- arenas on ---\n%s\n--- partial ---\n%s", want, partial)
	}
}

// arenaBytes is the footprint of compress's n-instruction trace for seed.
func arenaBytes(t *testing.T, seed int64, n uint64) int64 {
	t.Helper()
	prof, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	gen, err := workload.New(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	return trace.Materialize(gen, int(n)).Bytes()
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

// TestArenaRegistryEviction: idle arenas are dropped, least recently used
// first, to make room inside the budget; held arenas are never evicted.
func TestArenaRegistryEviction(t *testing.T) {
	s := hashedStream(t, "compress")
	const n = 1_000
	// Room for two arenas: the largest of the three built, plus the
	// reservation the second build makes before it charges its own size.
	var largest int64
	for seed := int64(1); seed <= 3; seed++ {
		largest = max(largest, arenaBytes(t, seed, n))
	}
	reg := newArenaRegistry(largest + trace.MaxBytes(n))
	c1, rel1, err := reg.acquire(s, 1, n)
	if err != nil || c1 == nil {
		t.Fatalf("acquire seed 1: %v %v", c1, err)
	}
	c2, rel2, err := reg.acquire(s, 2, n)
	if err != nil || c2 == nil {
		t.Fatalf("acquire seed 2: %v %v", c2, err)
	}
	// Both held: a third must fall back, not evict.
	c3, _, err := reg.acquire(s, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	if c3 != nil {
		t.Fatal("third acquire succeeded with the budget full of held arenas")
	}
	rel1()
	// Seed 1 idle: now the third fits by evicting it.
	c3, rel3, err := reg.acquire(s, 3, n)
	if err != nil || c3 == nil {
		t.Fatalf("acquire seed 3 after release: %v %v", c3, err)
	}
	st := reg.stats()
	if st.Evictions != 1 || st.Fallbacks != 1 || st.Count != 2 {
		t.Errorf("stats after eviction: %+v", st)
	}
	// Seed 2 was held throughout: a re-acquire is a hit, not a rebuild.
	before := reg.stats().Builds
	c2b, rel2b, err := reg.acquire(s, 2, n)
	if err != nil || c2b == nil {
		t.Fatalf("re-acquire seed 2: %v %v", c2b, err)
	}
	if reg.stats().Builds != before {
		t.Error("re-acquiring a held arena rebuilt it")
	}
	rel2()
	rel2b()
	rel3()
}

// replayPrefix drains n instructions from cur and checks them against a
// fresh compress generator for seed.
func replayPrefix(t *testing.T, cur *trace.Cursor, seed int64, n int) {
	t.Helper()
	prof, _ := workload.ByName("compress")
	gen, err := workload.New(prof, seed)
	if err != nil {
		t.Fatal(err)
	}
	var want, got isa.Inst
	for i := 0; i < n; i++ {
		gen.Next(&want)
		if !cur.Next(&got) {
			t.Fatalf("cursor ended at %d of %d", i, n)
		}
		if got != want {
			t.Fatalf("instruction %d diverged:\n live   %+v\n replay %+v", i, want, got)
		}
	}
}

// TestArenaRegistryPrefixes pins the content-only key: a longer arena
// serves a shorter request without a build, a longer request replaces a
// shorter arena (which stays charged while a cursor holds it), a request
// for nothing touches the registry not at all, and the byte count returns
// to zero once everything is released and evicted.
func TestArenaRegistryPrefixes(t *testing.T) {
	s := hashedStream(t, "compress")
	reg := newArenaRegistry(DefaultArenaBudget)
	check := func(when string, builds, hits uint64, count int, bytes int64) {
		t.Helper()
		st := reg.stats()
		if st.Builds != builds || st.Hits != hits || st.Count != count || st.Bytes != bytes {
			t.Fatalf("%s: stats %+v, want %d builds, %d hits, %d arenas, %d bytes",
				when, st, builds, hits, count, bytes)
		}
	}
	acquire := func(n uint64) (*trace.Cursor, func()) {
		t.Helper()
		cur, rel, err := reg.acquire(s, 1, n)
		if err != nil || cur == nil {
			t.Fatalf("acquire(%d): %v %v", n, cur, err)
		}
		return cur, rel
	}
	b500, b2000, b4000 := arenaBytes(t, 1, 500), arenaBytes(t, 1, 2_000), arenaBytes(t, 1, 4_000)

	short, relShort := acquire(500)
	check("first build", 1, 0, 1, b500)
	long, relLong := acquire(2_000)
	check("a longer request replaces the held short arena", 2, 0, 1, b500+b2000)
	mid, relMid := acquire(1_000)
	check("a shorter request replays the long arena", 2, 1, 1, b500+b2000)
	replayPrefix(t, short, 1, 500)
	replayPrefix(t, long, 1, 2_000)
	replayPrefix(t, mid, 1, 1_000)
	relShort()
	check("the replaced arena's last release", 2, 1, 1, b2000)
	empty, relEmpty := acquire(0)
	if empty.Next(new(isa.Inst)) {
		t.Error("a request for no instructions yielded one")
	}
	relEmpty()
	check("an empty request", 2, 1, 1, b2000)
	relLong()
	relMid()
	check("all released", 2, 1, 1, b2000)
	longer, relLonger := acquire(4_000)
	check("a longer request replaces the idle arena", 3, 1, 1, b4000)
	replayPrefix(t, longer, 1, 4_000)
	relLonger()
	reg.mu.Lock()
	for reg.evictOne() {
	}
	reg.mu.Unlock()
	check("all evicted", 3, 1, 0, 0)
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
	res, err := r.Run(m, "compress")
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

// TestArenaRegistryHugeReservation: a trace too long for any budget —
// even one whose byte count overflows an int64 — falls back to live
// generation and leaves nothing charged.
func TestArenaRegistryHugeReservation(t *testing.T) {
	s := hashedStream(t, "compress")
	reg := newArenaRegistry(DefaultArenaBudget)
	for _, n := range []uint64{math.MaxUint64, math.MaxInt64, 1 << 62, uint64(DefaultArenaBudget)} {
		cur, rel, err := reg.acquire(s, 42, n)
		if err != nil {
			t.Fatalf("acquire(%d): %v", n, err)
		}
		if cur != nil || rel != nil {
			t.Fatalf("acquire(%d) built an arena inside a %d-byte budget", n, DefaultArenaBudget)
		}
	}
	st := reg.stats()
	if st.Bytes != 0 || st.Count != 0 || st.Builds != 0 || st.Fallbacks != 4 {
		t.Errorf("stats after oversized acquires: %+v", st)
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
