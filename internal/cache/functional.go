package cache

import (
	"fmt"

	"portsim/internal/config"
)

// Store is the backing memory interface of a Functional cache: a byte-
// addressable store that reads and writes arbitrary spans. internal/mem's
// FlatMem is the usual implementation.
type Store interface {
	// ReadAt copies len(p) bytes starting at addr into p.
	ReadAt(addr uint64, p []byte)
	// WriteAt copies p into the store starting at addr.
	WriteAt(addr uint64, p []byte)
}

// Functional is a data-carrying write-back write-allocate cache over a
// backing Store. It reuses Level for tags, state and replacement, and adds
// one data line per way, indexed like the Level's flat way array. Its
// purpose is correctness testing: any sequence of Read/Write calls must be
// indistinguishable from the same calls applied to the Store directly
// (after a final Flush).
type Functional struct {
	level   *Level
	data    []byte // way i's line is data[i*LineBytes : (i+1)*LineBytes]
	backing Store
}

// NewFunctional builds a functional cache with the given geometry over the
// backing store.
func NewFunctional(geom config.CacheGeom, backing Store) (*Functional, error) {
	if backing == nil {
		return nil, fmt.Errorf("cache: functional cache requires a backing store")
	}
	level, err := NewLevel(geom)
	if err != nil {
		return nil, err
	}
	data := make([]byte, len(level.ways)*geom.LineBytes)
	return &Functional{level: level, data: data, backing: backing}, nil
}

// Level exposes the underlying tag/state model (for statistics).
func (f *Functional) Level() *Level { return f.level }

// line returns the data of flat way i.
func (f *Functional) line(i int) []byte {
	n := f.level.geom.LineBytes
	return f.data[i*n : (i+1)*n]
}

// ensure brings the line containing addr into the cache, writing back any
// dirty victim, and returns the line's data slice.
func (f *Functional) ensure(addr uint64, write bool) []byte {
	if i := f.level.find(addr); i >= 0 {
		f.level.Lookup(addr, write) // refresh LRU/dirty and count the hit
		return f.line(i)
	}
	f.level.Lookup(addr, write) // count the miss
	i, victimAddr, victimDirty, evicted := f.level.install(addr, write)
	d := f.line(i)
	// The way install selected still holds the victim's bytes, so write
	// them back before the fill overwrites them.
	if evicted && victimDirty {
		f.backing.WriteAt(victimAddr, d)
	}
	f.backing.ReadAt(f.level.LineAddr(addr), d)
	return d
}

// Read copies len(p) bytes at addr through the cache. The span must not
// cross a line boundary (the simulator's accesses never do: they are
// naturally aligned and at most 8 bytes).
func (f *Functional) Read(addr uint64, p []byte) error {
	if err := f.checkSpan(addr, len(p)); err != nil {
		return err
	}
	d := f.ensure(addr, false)
	off := addr - f.level.LineAddr(addr) //portlint:ignore cyclemath line base is addr with low bits masked off
	copy(p, d[off:off+uint64(len(p))])
	return nil
}

// Write copies p into the cache at addr (write-allocate, write-back). The
// span must not cross a line boundary.
func (f *Functional) Write(addr uint64, p []byte) error {
	if err := f.checkSpan(addr, len(p)); err != nil {
		return err
	}
	d := f.ensure(addr, true)
	off := addr - f.level.LineAddr(addr) //portlint:ignore cyclemath line base is addr with low bits masked off
	copy(d[off:off+uint64(len(p))], p)
	return nil
}

func (f *Functional) checkSpan(addr uint64, n int) error {
	if n <= 0 || n > f.level.geom.LineBytes {
		return fmt.Errorf("cache: span of %d bytes invalid for %d-byte lines", n, f.level.geom.LineBytes)
	}
	if f.level.LineAddr(addr) != f.level.LineAddr(addr+uint64(n)-1) {
		return fmt.Errorf("cache: span [%#x,%#x) crosses a line boundary", addr, addr+uint64(n))
	}
	return nil
}

// Flush writes every dirty line back to the store and invalidates the whole
// cache. After Flush, the store holds the complete memory image.
func (f *Functional) Flush() {
	for i := range f.level.ways {
		w := &f.level.ways[i]
		if w.state() == stateDirty {
			f.backing.WriteAt(f.level.lineAddrFromTag(w.tag), f.line(i))
		}
		w.stamp &^= stateMask // stateInvalid
	}
}
