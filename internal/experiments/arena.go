package experiments

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"

	"portsim/internal/cellstore"
	"portsim/internal/trace"
	"portsim/internal/workload"
)

// This file is the runner's one instruction source: a byte-budgeted
// registry that materialises each (profile, seed) dynamic trace once, as
// long as the prefix the first cell to need it asks for, keeps it for the
// runner's life, and hands it to every cell of the sweep, which replays it
// through a cursor. The arena itself lives in internal/trace; the registry
// owns the sharing policy: singleflight builds, and a private arena, built
// for one cell alone, when the budget has no room for a trace or a cell
// needs more of it than the kept arena holds. Shared and private arenas
// are verbatim captures of the same generator, so every experiment table
// is byte-identical whatever the budget; the CI arena diff gate enforces
// this end to end.

// DefaultArenaBudget is the registry's byte budget when Spec.ArenaBudget is
// zero: 512 MiB holds every arena of a full default campaign (each 300k-inst
// trace costs ~1.9 MB) with room to spare. It is also the smallest
// ceiling on one cell's trace: a cell whose trace may need more than the
// larger of the budget and this fails (openStream).
const DefaultArenaBudget int64 = 512 << 20

// arenaEntry is one shared trace. Waiters block on ready. n is the prefix
// length the entry was built for; bytes is what it is charged, its worst
// case while it builds and its actual size once built.
type arenaEntry struct {
	ready chan struct{}
	arena *trace.Arena
	err   error
	n     uint64
	bytes int64
}

// ArenaStats is a snapshot of the registry for telemetry and manifests.
type ArenaStats struct {
	// Budget is the configured byte budget; Count is the number of shared
	// arenas kept, and Bytes what they cost.
	Budget int64
	Count  int
	Bytes  int64
	// Builds counts shared traces materialised, Hits acquisitions served
	// from a kept arena, and Fallbacks traces built for one cell
	// alone, because the budget had no room or the kept arena was shorter.
	// Evictions is always zero: the registry drops no arena it keeps.
	Builds    uint64
	Hits      uint64
	Fallbacks uint64
	Evictions uint64
}

// arenaRegistry is the shared arena cache. Safe for concurrent use.
type arenaRegistry struct {
	budget int64 // negative: share nothing

	mu      sync.Mutex
	entries map[cellstore.Key]*arenaEntry
	bytes   int64

	builds, hits, fallbacks uint64
}

func newArenaRegistry(budget int64) *arenaRegistry {
	return &arenaRegistry{budget: budget, entries: make(map[cellstore.Key]*arenaEntry)}
}

// arenaKey is the registry key of the (profile, seed) trace of a hashed
// stream: its profile hash and seed, with no machine and no length.
func arenaKey(s *streamSpec, seed int64) cellstore.Key {
	return cellstore.Key{Stream: s.profHash, Seed: seed}
}

// errBuildPanicked is what the waiters on a shared build see when the
// build panicked; the building cell reports the panic itself.
var errBuildPanicked = fmt.Errorf("%w: building the shared trace panicked in another cell", ErrCellPanic)

// acquire returns an arena of at least the first n instructions of the
// materialised (profile, seed) trace of the hashed stream s. The trace is
// keyed by arenaKey, so profiles that differ only in name share one
// arena, and a kept arena of any length serves every request for as many
// instructions or fewer. Concurrent acquires of the same key share one
// build: the first caller materialises, the rest wait. A shared build
// reserves the arena's worst-case footprint and, once built, charges what
// it actually holds. A request the budget has no room for, or one longer
// than the kept arena, builds a private arena that the registry neither
// keeps nor charges. A request for no instructions gets an empty arena
// and touches nothing.
func (ar *arenaRegistry) acquire(s *streamSpec, seed int64, n uint64) (*trace.Arena, error) {
	if n == 0 {
		// A process the interleave never reaches needs no arena.
		return new(trace.Arena), nil
	}
	key := arenaKey(s, seed)
	need := trace.MaxBytes(n)
	ar.mu.Lock()
	e, kept := ar.entries[key]
	switch {
	case kept && e.n >= n:
		ar.hits++
		ar.mu.Unlock()
		<-e.ready
		return e.arena, e.err
	case kept || need > ar.budget-ar.bytes:
		// need may be math.MaxInt64, so it is compared with the room left
		// rather than added.
		ar.fallbacks++
		ar.mu.Unlock()
		return materialize(s.prof, seed, n)
	}
	e = &arenaEntry{ready: make(chan struct{}), err: errBuildPanicked, n: n, bytes: need}
	ar.entries[key] = e
	ar.bytes += need
	ar.builds++
	ar.mu.Unlock()
	defer ar.settle(key, e)
	e.arena, e.err = materialize(s.prof, seed, n)
	return e.arena, e.err
}

// settle ends the shared build of e, also when it panicked: a built arena
// is charged its actual size, a failed build leaves the registry and gives
// back its reservation, so the key can build again, and then the waiters
// wake.
func (ar *arenaRegistry) settle(key cellstore.Key, e *arenaEntry) {
	ar.mu.Lock()
	if e.arena != nil {
		ar.bytes += e.arena.Bytes() - e.bytes
		e.bytes = e.arena.Bytes()
	} else {
		delete(ar.entries, key)
		ar.bytes -= e.bytes
	}
	ar.mu.Unlock()
	close(e.ready)
}

// materialize builds the first n instructions of prof's trace at seed: the
// one place a runner cell's instructions are generated.
func materialize(prof workload.Profile, seed int64, n uint64) (*trace.Arena, error) {
	gen, err := workload.New(prof, seed)
	if err != nil {
		return nil, err
	}
	return trace.Materialize(gen, int(n)), nil
}

// stats snapshots the registry.
func (ar *arenaRegistry) stats() ArenaStats {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	return ArenaStats{
		Budget:    ar.budget,
		Count:     len(ar.entries),
		Bytes:     ar.bytes,
		Builds:    ar.builds,
		Hits:      ar.hits,
		Fallbacks: ar.fallbacks,
	}
}

// ArenaStats reports the arena registry snapshot; ok is false when the
// runner shares no arena (negative Spec.ArenaBudget).
func (r *Runner) ArenaStats() (ArenaStats, bool) {
	if r.arenas.budget < 0 {
		return ArenaStats{}, false
	}
	return r.arenas.stats(), true
}

// arenaLen returns the prefix of each process's trace a multiprogram
// stream asks the registry for; a single program asks for the whole
// per-cell instruction budget. Fetch stops asking for instructions at the
// budget, so a replay never runs dry inside it, and a read-ahead past the
// budget only finds an arena's end.
//
// A multiprogram's quantum interleave pulls only part of the budget from
// each process (workload.ProcessDemand). Every level of two or more
// processes draws the same quanta from the seed and hands quantum j to
// process j mod level, so a process's quanta at a level are a subset of
// its quanta at any level that divides it. Process i of a cell of two or
// more processes is therefore asked for its demand at the smallest
// divisor of the cell's level that is at least two and above i: that
// covers the cell's own demand, and cells of a sweep over divisible
// levels (A6: 2, 4, 8) ask the same length of every process they share,
// so each trace is built once whichever cell starts first. A single
// process replays the whole budget.
func (r *Runner) arenaLen(s *streamSpec) ([]uint64, error) {
	lens := make([]uint64, s.processes)
	for i := range lens {
		level := max(i+1, min(s.processes, 2))
		for s.processes%level != 0 {
			level++
		}
		demand, err := r.processDemand(level, s.quantum)
		if err != nil {
			return nil, err
		}
		lens[i] = demand[i]
	}
	return lens, nil
}

// processDemand returns workload.ProcessDemand at the spec's seed and
// budget, computed once per (processes, quantum).
func (r *Runner) processDemand(processes, quantum int) ([]uint64, error) {
	r.demandMu.Lock()
	defer r.demandMu.Unlock()
	key := [2]int{processes, quantum}
	if d, ok := r.demands[key]; ok {
		return d, nil
	}
	d, err := workload.ProcessDemand(processes, quantum, r.spec.Seed, r.spec.Insts)
	if err != nil {
		return nil, err
	}
	if r.demands == nil {
		r.demands = make(map[[2]int][]uint64)
	}
	r.demands[key] = d
	return d, nil
}

// openStream returns the cell's instruction stream: cur, reset to the
// start of its trace, for a single program, the quantum interleave over a
// new cursor per process for a multiprogram. Each process's trace is asked
// for the prefix the cell replays (arenaLen), shared when the registry
// keeps or has room for it and built for the cell alone otherwise. A cell
// whose trace may need more bytes than the larger of the budget and
// DefaultArenaBudget fails before it counts a demand or builds anything.
func (r *Runner) openStream(s *streamSpec, cur *trace.Cursor) (trace.Stream, error) {
	if ceiling := max(r.arenas.budget, DefaultArenaBudget); trace.MaxBytes(r.spec.Insts) > ceiling {
		return nil, fmt.Errorf("experiments: a trace of %d instructions may need more than the %d bytes a cell may build; raise -arena-budget (Spec.ArenaBudget)",
			r.spec.Insts, ceiling)
	}
	if s.processes == 0 {
		a, err := r.arenas.acquire(s, r.spec.Seed, r.spec.Insts)
		if err != nil {
			return nil, err
		}
		cur.Reset(a)
		return cur, nil
	}
	demand, err := r.arenaLen(s)
	if err != nil {
		return nil, err
	}
	cursors := make([]*trace.Cursor, s.processes)
	for i := range cursors {
		a, err := r.arenas.acquire(s, r.spec.Seed+int64(i)*workload.SeedStride, demand[i])
		if err != nil {
			return nil, err
		}
		cursors[i] = a.NewCursor()
	}
	return workload.NewMultiprogramReplay(cursors, s.quantum, r.spec.Seed)
}

// ParseArenaBudget parses a -arena-budget flag value: a byte size with an
// optional binary or decimal unit suffix ("256MiB", "1g", "64000000"),
// "off" or "0" to share no arena, or "" for the default budget. Returns 0
// for the default, a negative value for sharing none, a positive byte
// count otherwise.
func ParseArenaBudget(s string) (int64, error) {
	lower := strings.ToLower(strings.TrimSpace(s))
	switch lower {
	case "":
		return 0, nil
	case "off", "0":
		return -1, nil
	}
	units := []struct {
		suffix string
		mult   int64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30},
		{"kb", 1_000}, {"mb", 1_000_000}, {"gb", 1_000_000_000},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30},
		{"b", 1},
	}
	num, mult := lower, int64(1)
	for _, u := range units {
		if strings.HasSuffix(lower, u.suffix) {
			num = strings.TrimSpace(strings.TrimSuffix(lower, u.suffix))
			mult = u.mult
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	bytes := v * float64(mult)
	// Converting NaN, an infinity or anything from 2^63 up to int64 has an
	// implementation-dependent result, negative on amd64, which reads as "off".
	if err != nil || !(bytes >= 0 && bytes < math.MaxInt64) {
		return 0, fmt.Errorf("experiments: arena budget %q is not a byte size", s)
	}
	n := int64(bytes)
	if n <= 0 {
		return -1, nil
	}
	return n, nil
}
