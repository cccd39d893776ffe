// Package constonly is a counterhygiene fixture for ConstOnlyPackages:
// counter names must be the canonical constants from the stats package, so
// bare literals and locally declared constants are both flagged.
package constonly

import "portsim/internal/stats"

const localName = "co.local"

func record(s *stats.Set, class string) {
	s.Add(stats.Cycles, 1)
	s.Add(stats.ClassCounter(class), 1)
	s.Add("co.raw", 1)  // want `stringly-typed counter name "co\.raw"`
	s.Add(localName, 2) // want `counter name constant localName is declared outside`
}
