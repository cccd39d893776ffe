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

// This file is the generate-once side of the trace arenas: a refcounted,
// byte-budgeted registry that materialises each (profile, seed) dynamic
// trace once, as long as the longest prefix any cell has asked of it, and
// hands every cell of the sweep a zero-alloc cursor over it. The arena
// itself lives in internal/trace; the registry owns the sharing policy —
// singleflight builds, LRU eviction of idle arenas, and the fallback to
// live streaming generation when the budget is exhausted.
// Cursor replay and live generation are instruction-identical by
// construction (the arena is a verbatim capture of the same generator), so
// every experiment table is byte-identical with arenas on, off, or
// partially fallen back; the CI arena diff gate enforces this end to end.

// DefaultArenaBudget is the registry's byte budget when Spec.ArenaBudget is
// zero: 512 MiB holds every arena of a full default campaign (each 300k-inst
// trace costs ~1.9 MB) with room to spare.
const DefaultArenaBudget int64 = 512 << 20

// arenaEntry is one registry slot. refs counts live cursors plus, during
// the build, the building caller — an entry under construction is never
// evictable. Waiters block on ready. n is the prefix length the entry was
// built for; a replaced entry has left the map but stays charged until
// its last holder releases it.
type arenaEntry struct {
	ready   chan struct{}
	arena   *trace.Arena
	err     error
	n       uint64
	bytes   int64
	refs    int
	lastUse uint64
}

// ArenaStats is a snapshot of the registry for telemetry and manifests.
type ArenaStats struct {
	// Budget is the configured byte budget; Count is the number of arenas
	// the registry serves from, and Bytes what every arena still held
	// costs, replaced ones included.
	Budget int64
	Count  int
	Bytes  int64
	// Builds counts traces materialised, Hits cursor acquisitions served
	// from an existing arena, Fallbacks cells sent to live generation
	// because the budget was exhausted, Evictions idle arenas dropped to
	// make room.
	Builds    uint64
	Hits      uint64
	Fallbacks uint64
	Evictions uint64
}

// arenaRegistry is the refcounted arena cache. Safe for concurrent use.
type arenaRegistry struct {
	budget int64

	mu      sync.Mutex
	entries map[cellstore.Key]*arenaEntry
	bytes   int64
	clock   uint64

	builds, hits, fallbacks, evictions uint64
}

func newArenaRegistry(budget int64) *arenaRegistry {
	return &arenaRegistry{budget: budget, entries: make(map[cellstore.Key]*arenaEntry)}
}

// acquire returns a cursor over the first n instructions of the
// materialised (profile, seed) trace plus a release closure, or
// (nil, nil, nil) when the byte budget forces this cell onto live
// generation. The trace is keyed by the machine-less cellKey of its
// content, without a length, so profiles that differ only in name share
// one arena, and an arena of any length serves every request for as many
// instructions or fewer. A longer request builds a longer arena that
// replaces the short one. Concurrent acquires of the same key share one
// build: the first caller materialises, the rest wait. A build reserves
// the arena's worst-case footprint and, once built, charges what it
// actually holds. A request for no instructions gets an empty cursor and
// touches nothing.
func (ar *arenaRegistry) acquire(prof workload.Profile, seed int64, n uint64) (*trace.Cursor, func(), error) {
	if n == 0 {
		// A process the interleave never reaches needs no arena.
		return new(trace.Arena).NewCursor(), func() {}, nil
	}
	key, err := cellKey(nil, streamSpec{prof: prof}, seed, 0, "")
	if err != nil {
		return nil, nil, err
	}
	need := trace.MaxBytes(n)
	ar.mu.Lock()
	old, ok := ar.entries[key]
	if ok && old.n >= n {
		old.refs++
		ar.clock++
		old.lastUse = ar.clock
		ar.hits++
		ar.mu.Unlock()
		<-old.ready
		if old.err != nil {
			ar.release(key, old)
			return nil, nil, old.err
		}
		return old.arena.NewCursor(), func() { ar.release(key, old) }, nil
	}
	// Make room: evict idle arenas, least recently used first. need may be
	// math.MaxInt64, so compare against the room left rather than add.
	for need > ar.budget-ar.bytes && ar.evictOne() {
	}
	if need > ar.budget-ar.bytes {
		ar.fallbacks++
		ar.mu.Unlock()
		return nil, nil, nil
	}
	if ok && ar.entries[key] == old && old.refs == 0 {
		// The shorter arena is replaced below and nothing holds it.
		ar.bytes -= old.bytes
	}
	e := &arenaEntry{ready: make(chan struct{}), n: n, bytes: need, refs: 1}
	ar.clock++
	e.lastUse = ar.clock
	ar.entries[key] = e
	ar.bytes += need
	ar.builds++
	ar.mu.Unlock()

	gen, genErr := workload.New(prof, seed)
	if genErr != nil {
		e.err = genErr
	} else {
		e.arena = trace.Materialize(gen, int(n))
		actual := e.arena.Bytes()
		ar.mu.Lock()
		ar.bytes += actual - e.bytes
		e.bytes = actual
		ar.mu.Unlock()
	}
	close(e.ready)
	if e.err != nil {
		ar.release(key, e)
		return nil, nil, e.err
	}
	return e.arena.NewCursor(), func() { ar.release(key, e) }, nil
}

// release drops one reference. A failed build leaves the map, and a
// replaced arena stops being charged, as soon as the last holder lets go,
// so neither consumes budget nor pins its memory or error.
func (ar *arenaRegistry) release(key cellstore.Key, e *arenaEntry) {
	ar.mu.Lock()
	defer ar.mu.Unlock()
	e.refs--
	if e.refs > 0 {
		return
	}
	if ar.entries[key] == e {
		if e.err == nil {
			return // resident until evicted
		}
		delete(ar.entries, key)
	}
	ar.bytes -= e.bytes
}

// evictOne drops the least recently used idle arena. Caller holds mu. The
// map scan accumulates a minimum over unique lastUse stamps, so iteration
// order cannot affect the victim.
func (ar *arenaRegistry) evictOne() bool {
	var victimKey cellstore.Key
	var victim *arenaEntry
	for k, e := range ar.entries {
		if e.refs == 0 && (victim == nil || e.lastUse < victim.lastUse) {
			victimKey, victim = k, e
		}
	}
	if victim == nil {
		return false
	}
	delete(ar.entries, victimKey)
	ar.bytes -= victim.bytes
	ar.evictions++
	return true
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
		Evictions: ar.evictions,
	}
}

// ArenaStats reports the arena registry snapshot; ok is false when arenas
// are disabled for this runner (negative Spec.ArenaBudget).
func (r *Runner) ArenaStats() (ArenaStats, bool) {
	if r.arenas == nil {
		return ArenaStats{}, false
	}
	return r.arenas.stats(), true
}

// arenaLen returns the prefix of each process's trace a multiprogram
// stream asks the registry for, or nil when every trace the stream reads
// is asked for the whole per-cell instruction budget: a single program, or
// a runner without arenas. Fetch stops asking for instructions at the
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
func (r *Runner) arenaLen(s streamSpec) ([]uint64, error) {
	if s.processes == 0 || r.arenas == nil {
		return nil, nil
	}
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

// openStream returns the cell's instruction stream and its release
// closure: cursors over the shared arenas when the registry holds every
// process's trace, live generation otherwise. Each process's arena is
// asked for the prefix the cell replays (arenaLen), and the registry
// serves that from any arena at least as long. A multiprogrammed
// stream replays the quantum interleave over per-process cursors —
// instruction-identical to the live NewMultiprogram stream (golden-tested
// in internal/workload) — and falls back to live generation wholesale.
// On error nothing stays acquired.
func (r *Runner) openStream(s streamSpec) (stream trace.Stream, release func(), err error) {
	seed, procs := r.spec.Seed, max(s.processes, 1)
	var cursors []*trace.Cursor
	var releases []func()
	releaseAll := func() {
		for _, rel := range releases {
			rel()
		}
	}
	defer func() {
		if err != nil {
			releaseAll()
		}
	}()
	demand, err := r.arenaLen(s)
	if err != nil {
		return nil, nil, err
	}
	for i := 0; r.arenas != nil && i < procs; i++ {
		n := r.spec.Insts
		if demand != nil {
			n = demand[i]
		}
		cur, rel, err := r.arenas.acquire(s.prof, seed+int64(i)*workload.SeedStride, n)
		if err != nil {
			return nil, nil, err
		}
		if cur == nil {
			break
		}
		cursors, releases = append(cursors, cur), append(releases, rel)
	}
	switch {
	case len(cursors) < procs:
		releaseAll()
		releases = nil
		if s.processes == 0 {
			stream, err = workload.New(s.prof, seed)
		} else {
			stream, err = workload.NewMultiprogram(s.prof, s.processes, s.quantum, seed)
		}
	case s.processes == 0:
		stream = cursors[0]
	default:
		stream, err = workload.NewMultiprogramReplay(cursors, s.quantum, seed)
	}
	return stream, releaseAll, err
}

// ParseArenaBudget parses a -arena-budget flag value: a byte size with an
// optional binary or decimal unit suffix ("256MiB", "1g", "64000000"),
// "off" or "0" to disable arenas, or "" for the default budget. Returns 0
// for the default, a negative value for disabled, a positive byte count
// otherwise.
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
