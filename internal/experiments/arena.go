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
// trace exactly once and hands every cell of the sweep a zero-alloc cursor
// over it. The arena itself lives in internal/trace; the registry owns the
// sharing policy — singleflight builds, LRU eviction of idle arenas, and
// the fallback to live streaming generation when the budget is exhausted.
// Cursor replay and live generation are instruction-identical by
// construction (the arena is a verbatim capture of the same generator), so
// every experiment table is byte-identical with arenas on, off, or
// partially fallen back; the CI arena diff gate enforces this end to end.

// DefaultArenaBudget is the registry's byte budget when Spec.ArenaBudget is
// zero: 512 MiB holds every arena of a full default campaign (each 300k-inst
// trace costs ~2.6 MB) with room to spare.
const DefaultArenaBudget int64 = 512 << 20

// arenaEntry is one registry slot. refs counts live cursors plus, during
// the build, the building caller — an entry under construction is never
// evictable. Waiters block on ready.
type arenaEntry struct {
	ready   chan struct{}
	arena   *trace.Arena
	err     error
	bytes   int64
	refs    int
	lastUse uint64
}

// ArenaStats is a snapshot of the registry for telemetry and manifests.
type ArenaStats struct {
	// Budget is the configured byte budget; Bytes and Count describe the
	// arenas currently resident.
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

// acquire returns a cursor over the materialised (profile, seed) trace of n
// instructions plus a release closure, or (nil, nil, nil) when the byte
// budget forces this cell onto live generation. The trace is keyed by the
// machine-less cellKey of its content, so profiles that differ only in
// name share one arena. Concurrent acquires of the same key share one
// build: the first caller materialises, the rest wait. A build reserves
// the arena's worst-case footprint and, once built, charges what it
// actually holds.
func (ar *arenaRegistry) acquire(prof workload.Profile, seed int64, n uint64) (*trace.Cursor, func(), error) {
	key, err := cellKey(nil, streamSpec{prof: prof}, seed, n, "")
	if err != nil {
		return nil, nil, err
	}
	need := trace.MaxBytes(n)
	ar.mu.Lock()
	if e, ok := ar.entries[key]; ok {
		e.refs++
		ar.clock++
		e.lastUse = ar.clock
		ar.hits++
		ar.mu.Unlock()
		<-e.ready
		if e.err != nil {
			ar.release(key, e)
			return nil, nil, e.err
		}
		return e.arena.NewCursor(), func() { ar.release(key, e) }, nil
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
	e := &arenaEntry{ready: make(chan struct{}), bytes: need, refs: 1}
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

// release drops one reference. Failed builds are purged as soon as the last
// holder lets go so they neither consume budget nor pin the error.
func (ar *arenaRegistry) release(key cellstore.Key, e *arenaEntry) {
	ar.mu.Lock()
	e.refs--
	if e.refs == 0 && e.err != nil {
		delete(ar.entries, key)
		ar.bytes -= e.bytes
	}
	ar.mu.Unlock()
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
// are disabled for this runner (negative Spec.ArenaBudget, or a spec with
// no instruction budget to size arenas by).
func (r *Runner) ArenaStats() (ArenaStats, bool) {
	if r.arenas == nil {
		return ArenaStats{}, false
	}
	return r.arenas.stats(), true
}

// arenaLen is the materialised length of every arena in this campaign: the
// per-cell instruction budget. Fetch stops asking for instructions once it
// reaches the budget, so a single-program replay never runs dry inside it.
// A multiprogram replay runs dry only when one process has supplied the
// whole budget, which is at or past the fetch limit. One shared length
// keeps single-program and multiprogram cells on the same arenas.
func (r *Runner) arenaLen() uint64 { return r.spec.Insts }

// openStream returns the cell's instruction stream and its release
// closure: cursors over the shared arenas when the registry holds every
// process's trace, live generation otherwise. A multiprogrammed stream
// replays the quantum interleave over per-process cursors —
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
	for i := 0; r.arenas != nil && i < procs; i++ {
		cur, rel, err := r.arenas.acquire(s.prof, seed+int64(i)*workload.SeedStride, r.arenaLen())
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
