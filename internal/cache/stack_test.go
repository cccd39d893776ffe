package cache

import (
	"testing"

	"portsim/internal/config"
	"portsim/internal/isa"
	"portsim/internal/workload"
)

// TestLRUStackProperty checks Mattson's stack property of true LRU: with
// the set count and line size fixed, a cache of n ways holds a subset of
// what a cache of 2n ways holds, after every access of a reference string.
// Each workload's first 200k data references (seed 42, stores as writes)
// run through levels of 512 sets and 32-byte lines at 1, 2, 4 and 8 ways;
// an access is a Lookup, then an Install on a miss. An access changes only
// its own set, so checking that set after each access checks inclusion at
// every step. Misses cannot rise with associativity.
func TestLRUStackProperty(t *testing.T) {
	const sets, lineBytes, refs = 512, 32, 200_000
	assocs := []int{1, 2, 4, 8}
	for _, name := range workload.Names() {
		prof, _ := workload.ByName(name)
		gen, err := workload.New(prof, 42)
		if err != nil {
			t.Fatal(err)
		}
		levels := make([]*Level, len(assocs))
		for i, a := range assocs {
			if levels[i], err = NewLevel(config.CacheGeom{SizeBytes: sets * a * lineBytes, Assoc: a, LineBytes: lineBytes}); err != nil {
				t.Fatal(err)
			}
		}
		var buf [1]isa.Inst
		in := &buf[0]
		for n := 0; n < refs; {
			gen.NextBatch(buf[:])
			if !in.Class.IsMem() {
				continue
			}
			n++
			write := in.Class == isa.Store
			for _, l := range levels {
				if !l.Lookup(in.Addr, write) {
					l.Install(in.Addr, write)
				}
			}
			for i, small := range levels[:len(levels)-1] {
				base := small.setBase(in.Addr)
				for _, w := range small.ways[base : base+small.geom.Assoc] {
					if w.state() == stateInvalid {
						continue
					}
					if line := small.lineAddrFromTag(w.tag); !levels[i+1].Contains(line) {
						t.Fatalf("%s, reference %d: line %#x is in the %d-way cache but not the %d-way one",
							name, n, line, assocs[i], assocs[i+1])
					}
				}
			}
		}
		for i := 1; i < len(levels); i++ {
			if levels[i].Misses() > levels[i-1].Misses() {
				t.Errorf("%s: %d misses at %d ways, %d at %d ways", name,
					levels[i].Misses(), assocs[i], levels[i-1].Misses(), assocs[i-1])
			}
		}
		t.Logf("%s: misses at 1/2/4/8 ways: %d %d %d %d", name,
			levels[0].Misses(), levels[1].Misses(), levels[2].Misses(), levels[3].Misses())
	}
}
