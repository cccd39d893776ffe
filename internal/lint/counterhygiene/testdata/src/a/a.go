// Package a is a counterhygiene fixture for a regular (non-core) package:
// constant names and stats name constructors are fine, dynamic names are
// flagged, and reads without a matching write anywhere are typo candidates.
package a

import (
	"fmt"

	"portsim/internal/stats"
)

const total = "a.total"

func record(s *stats.Set, class string) {
	s.Add(total, 3)
	s.Add("a.hits", 1)
	s.Add(stats.Cycles, 100)
	s.Add(stats.GrantBucket(2), 1)

	_ = s.Get("a.hits")
	_ = s.Get(stats.GrantBucket(2))
	_ = s.Get("a.typo")                         // want `counter "a\.typo" is read but never written`
	_ = s.Get("a.missing")                      // want `counter "a\.missing" is read but never written`
	_ = s.Get(stats.ClassCounter(class))        // want `counter stats\.ClassCounter\(\.\.\.\) is read but never written`
	_ = s.Get(fmt.Sprintf("a.%s.bytes", class)) // want `non-constant counter name fmt\.Sprintf\(.*\) defeats typo detection`
}
