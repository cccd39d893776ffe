// Package b writes a subset of the fakestats vocabulary, leaving DeadName
// untouched and reading one name nobody writes.
package b

import "portsim/internal/lint/counterhygiene/testdata/src/fakestats"

func record(s *fakestats.Set) uint64 {
	s.Add(fakestats.Good, 1)
	s.Add(fakestats.Dup1, 1)
	return s.Get("b.typo") // want `counter "b\.typo" is read but never written`
}
