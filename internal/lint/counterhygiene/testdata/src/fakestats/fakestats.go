// Package fakestats is a miniature stand-in for the real stats package,
// used by the counterhygiene tests to exercise the names-file audit: the
// test points counterhygiene.StatsPackage at this package, so the checks in
// names.go run against a controlled vocabulary.
package fakestats

// Set mirrors the counter API of the real stats.Set.
type Set struct {
	counters map[string]uint64
}

// Add accumulates v into the named counter.
func (s *Set) Add(name string, v uint64) {
	if s.counters == nil {
		s.counters = make(map[string]uint64)
	}
	s.counters[name] += v
}

// Get returns the named counter's value.
func (s *Set) Get(name string) uint64 { return s.counters[name] }
