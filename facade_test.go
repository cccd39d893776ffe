package portsim_test

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"portsim"
	"portsim/internal/core"
	"portsim/internal/cpu"
	"portsim/internal/stats"
)

// facadeInsts is the bench's facade-serial budget per Run (7/3 of its
// 40k-instruction campaign scale).
const facadeInsts = 93_333

// TestReportConservation checks exact laws over a facade Run's counters
// on every preset, next-line prefetch and a banked best-single: every
// port grant is a load, a store drain, a refill cycle or a prefetch;
// every store entering the buffer drains in its own write or combines
// into another; every load is served by exactly one source; and the
// grant buckets partition the port's cycles and grants.
func TestReportConservation(t *testing.T) {
	machines := []portsim.Config{}
	for _, name := range portsim.ConfigNames() {
		cfg, _ := portsim.ConfigByName(name)
		machines = append(machines, cfg)
	}
	prefetch := portsim.BestSingleConfig()
	prefetch.Name += "+prefetch"
	prefetch.Ports.PrefetchNextLine, prefetch.Ports.PrefetchDegree = true, 2
	banked := portsim.BestSingleConfig()
	banked.Name += "+banks4"
	banked.Ports.Banks = 4
	machines = append(machines, prefetch, banked)

	for _, m := range machines {
		for _, w := range []string{"compress", "database", "mp3d"} {
			sim, err := portsim.New(m, w, 42)
			if err != nil {
				t.Fatal(err)
			}
			res, err := sim.Run(30_000)
			if err != nil {
				t.Fatalf("%s on %s: %v", w, m.Name, err)
			}
			c := res.Counters
			law := func(what string, lhs uint64, rhs ...string) {
				t.Helper()
				var sum uint64
				for _, name := range rhs {
					sum += c.Get(name)
				}
				if lhs != sum {
					t.Errorf("%s on %s: %s: %d != %s = %d", w, m.Name, what, lhs, strings.Join(rhs, " + "), sum)
				}
			}
			law(stats.PortGrants, c.Get(stats.PortGrants),
				stats.PortLoadAccesses, stats.PortStoreAccesses, stats.PortRefillCycles, stats.PortPrefetches)
			law(stats.PortSBInserts, c.Get(stats.PortSBInserts), stats.PortSBDrains, stats.PortSBCombined)
			law(stats.Loads, c.Get(stats.Loads),
				stats.PortLoadsFromCache, stats.PortLoadsFromLineBuffer, stats.PortLoadsFromStoreBuffer, stats.LSQForwards)
			var cycles, grants uint64
			for g := 0; g <= core.SlotsPerCycle(m.Ports); g++ {
				cycles += c.Get(stats.GrantBucket(g))
				grants += uint64(g) * c.Get(stats.GrantBucket(g))
			}
			if cycles != c.Get(stats.PortCycles) || grants != c.Get(stats.PortGrants) {
				t.Errorf("%s on %s: grant buckets hold %d cycles and %d grants, counters %d and %d",
					w, m.Name, cycles, grants, c.Get(stats.PortCycles), c.Get(stats.PortGrants))
			}
			if c.Get(stats.PortGrants) == 0 || c.Get(stats.PortSBInserts) == 0 {
				t.Errorf("%s on %s: no grants or no stores; the laws hold vacuously", w, m.Name)
			}
		}
	}
}

// TestFacadeRunAllocations bounds the heap allocations of facade Runs at
// facade-serial's length, counted as the bench counts them: MemStats
// Mallocs around Run. A Run allocates its Result, one block with its
// counters, and the read-ahead's ring, channel and goroutine; the runtime
// adds a few more when the read-ahead blocks after a GC. A Run that
// builds its Result as separate objects again (three more), or grows the
// generator's call stack or the port's refill windows, puts each preset
// past the bound.
func TestFacadeRunAllocations(t *testing.T) {
	const perRun = 7 // mean over the workloads, per preset
	for _, name := range portsim.ConfigNames() {
		cfg, _ := portsim.ConfigByName(name)
		var total uint64
		for _, w := range portsim.Workloads() {
			sim, err := portsim.New(cfg, w, 42)
			if err != nil {
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = sim.Run(facadeInsts)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatalf("%s on %s: %v", w, name, err)
			}
			total += after.Mallocs - before.Mallocs
		}
		runs := uint64(len(portsim.Workloads()))
		t.Logf("%s: %d allocations in %d Runs", name, total, runs)
		if total > perRun*runs {
			t.Errorf("%s: %d allocations in %d Runs, want at most %d each on average", name, total, runs, perRun)
		}
	}
}

// TestRunLeavesNoGoroutine: the read-ahead's producer never outlives Run,
// whether Run succeeds, returns a watchdog error, or rejects its
// argument before starting the producer.
func TestRunLeavesNoGoroutine(t *testing.T) {
	stuck := portsim.BaselineConfig()
	stuck.Ports.FaultStuckDrain = true
	for _, tc := range []struct {
		name  string
		cfg   portsim.Config
		insts uint64
		check func(error) bool
	}{
		{"success", portsim.BaselineConfig(), facadeInsts, func(err error) bool { return err == nil }},
		{"stall", stuck, facadeInsts, func(err error) bool { return errors.Is(err, cpu.ErrStall) }},
		{"rejected", portsim.BaselineConfig(), 0, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "maxInstructions must be positive")
		}},
	} {
		base := runtime.NumGoroutine()
		sim, err := portsim.New(tc.cfg, "compress", 1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sim.Run(tc.insts); !tc.check(err) {
			t.Fatalf("%s: Run returned %v", tc.name, err)
		}
		// A producer that has closed its channel may not be reaped yet.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after Run, %d before New", tc.name, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
