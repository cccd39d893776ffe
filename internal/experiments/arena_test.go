package experiments

import (
	"math"
	"testing"

	"portsim/internal/trace"
	"portsim/internal/workload"
)

// arenaTestSpec is a small campaign that still covers both runner stream
// paths: single-program cells (F1's sweep) and the multiprogrammed
// interleave (A6).
func arenaTestSpec(budget int64) Spec {
	return Spec{Workloads: []string{"compress"}, Insts: 6_000, Seed: 42, ArenaBudget: budget}
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

	// A budget of exactly two arenas — one built, plus the reservation the
	// next build makes — so some A6 levels (up to 8 processes) must fall
	// back while single-program cells replay.
	twoArenas := arenaBytes(t, 42, arenaTestSpec(0).Insts) + trace.MaxBytes(arenaTestSpec(0).Insts)
	partial, partialRunner := runArenaCampaign(t, twoArenas)
	pst, _ := partialRunner.ArenaStats()
	if pst.Fallbacks == 0 {
		t.Fatalf("expected budget-forced fallbacks at %d bytes: %+v", twoArenas, pst)
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
// changes the totals.
func TestArenaRegistrySharing(t *testing.T) {
	for _, parallel := range []int{1, 8} {
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
	}
}

// TestArenaRegistryEviction: idle arenas are dropped, least recently used
// first, to make room inside the budget; held arenas are never evicted.
func TestArenaRegistryEviction(t *testing.T) {
	prof, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	const n = 1_000
	// Room for two arenas: the largest of the three built, plus the
	// reservation the second build makes before it charges its own size.
	var largest int64
	for seed := int64(1); seed <= 3; seed++ {
		largest = max(largest, arenaBytes(t, seed, n))
	}
	reg := newArenaRegistry(largest + trace.MaxBytes(n))
	c1, rel1, err := reg.acquire(prof, 1, n)
	if err != nil || c1 == nil {
		t.Fatalf("acquire seed 1: %v %v", c1, err)
	}
	c2, rel2, err := reg.acquire(prof, 2, n)
	if err != nil || c2 == nil {
		t.Fatalf("acquire seed 2: %v %v", c2, err)
	}
	// Both held: a third must fall back, not evict.
	c3, _, err := reg.acquire(prof, 3, n)
	if err != nil {
		t.Fatal(err)
	}
	if c3 != nil {
		t.Fatal("third acquire succeeded with the budget full of held arenas")
	}
	rel1()
	// Seed 1 idle: now the third fits by evicting it.
	c3, rel3, err := reg.acquire(prof, 3, n)
	if err != nil || c3 == nil {
		t.Fatalf("acquire seed 3 after release: %v %v", c3, err)
	}
	st := reg.stats()
	if st.Evictions != 1 || st.Fallbacks != 1 || st.Count != 2 {
		t.Errorf("stats after eviction: %+v", st)
	}
	// Seed 2 was held throughout: a re-acquire is a hit, not a rebuild.
	before := reg.stats().Builds
	c2b, rel2b, err := reg.acquire(prof, 2, n)
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

// TestArenaRegistryHugeReservation: a trace too long for any budget —
// even one whose byte count overflows an int64 — falls back to live
// generation and leaves nothing charged.
func TestArenaRegistryHugeReservation(t *testing.T) {
	prof, ok := workload.ByName("compress")
	if !ok {
		t.Fatal("compress workload missing")
	}
	reg := newArenaRegistry(DefaultArenaBudget)
	for _, n := range []uint64{math.MaxUint64, math.MaxInt64, 1 << 62, uint64(DefaultArenaBudget)} {
		cur, rel, err := reg.acquire(prof, 42, n)
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
