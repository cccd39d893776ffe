// Package stats provides the statistics machinery shared by the simulator:
// named counters, ratio helpers, bounded histograms, and plain-text table
// rendering used by the experiment harness to print paper-style tables.
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Set is a collection of named counters. Counter names are created on first
// use; the zero value is not usable — construct with NewSet.
type Set struct {
	counters map[string]uint64
	order    []string
}

// NewSet returns an empty counter set.
func NewSet() *Set { return NewSetSize(0) }

// NewSetSize returns an empty counter set with room for n counters, so a
// producer that knows its counter count fills it without regrowing.
func NewSetSize(n int) *Set {
	return &Set{counters: make(map[string]uint64, n), order: make([]string, 0, n)}
}

// Add increments the named counter by n, creating it if necessary.
func (s *Set) Add(name string, n uint64) {
	if _, ok := s.counters[name]; !ok {
		s.order = append(s.order, name)
	}
	s.counters[name] += n
}

// Inc increments the named counter by one.
func (s *Set) Inc(name string) { s.Add(name, 1) }

// Get returns the value of the named counter (zero if never touched).
func (s *Set) Get(name string) uint64 { return s.counters[name] }

// Names returns the counter names in creation order.
func (s *Set) Names() []string {
	out := make([]string, len(s.order))
	copy(out, s.order)
	return out
}

// SafeRatio returns num/den, or 0 when den is exactly zero. Every rate the
// experiment harness renders (miss rates, mispredict rates, per-kI counts,
// IPC ratios) divides by a quantity that is zero precisely when the
// underlying counters never fired — a branch-free or memory-op-free cell —
// and 0, not NaN or +Inf, is the value a table should show for "no events".
func SafeRatio(num, den float64) float64 {
	if den == 0 { //portlint:ignore floatcmp a zero denominator is the exact no-events case, not a rounding artefact
		return 0
	}
	return num / den
}

// Ratio returns num/den as a float, with SafeRatio's no-events rule: 0 when
// the denominator counter never fired.
func (s *Set) Ratio(num, den string) float64 {
	return SafeRatio(float64(s.counters[num]), float64(s.counters[den]))
}

// Merge adds every counter of other into s.
func (s *Set) Merge(other *Set) {
	for _, name := range other.order {
		s.Add(name, other.counters[name])
	}
}

// String renders the set as "name=value" lines sorted by name, primarily for
// debugging and log output.
func (s *Set) String() string {
	names := make([]string, 0, len(s.counters))
	for n := range s.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "%s=%d\n", n, s.counters[n])
	}
	return b.String()
}

// Histogram is a fixed-range histogram of non-negative integer samples.
// Samples at or above the bucket count land in the overflow bucket.
type Histogram struct {
	buckets  []uint64
	overflow uint64
	count    uint64
	sum      uint64
	max      uint64
}

// NewHistogram returns a histogram with buckets for values 0..n-1 and an
// overflow bucket for values >= n. It panics if n is not positive, since a
// histogram without buckets indicates a construction bug.
func NewHistogram(n int) *Histogram {
	if n <= 0 {
		panic("stats: histogram needs at least one bucket")
	}
	return &Histogram{buckets: make([]uint64, n)}
}

// Observe records one sample.
func (h *Histogram) Observe(v uint64) {
	if v < uint64(len(h.buckets)) {
		h.buckets[v]++
	} else {
		h.overflow++
	}
	h.count++
	h.sum += v
	if v > h.max {
		h.max = v
	}
}

// Reset zeroes every bucket and summary statistic, restoring the
// just-constructed state while keeping the bucket array.
func (h *Histogram) Reset() {
	clear(h.buckets)
	h.overflow, h.count, h.sum, h.max = 0, 0, 0, 0
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() uint64 { return h.sum }

// Max returns the largest sample observed (zero when empty).
func (h *Histogram) Max() uint64 { return h.max }

// Mean returns the arithmetic mean of the samples (zero when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Bucket returns the count of samples with value v, or the overflow count
// when v is outside the tracked range.
func (h *Histogram) Bucket(v uint64) uint64 {
	if v < uint64(len(h.buckets)) {
		return h.buckets[v]
	}
	return h.overflow
}

// Overflow returns the count of samples at or above the bucket range.
func (h *Histogram) Overflow() uint64 { return h.overflow }

// Fraction returns the fraction of samples equal to v (overflow for v out of
// range); zero when the histogram is empty.
func (h *Histogram) Fraction(v uint64) float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.Bucket(v)) / float64(h.count)
}

// GeoMean returns the geometric mean of the values. Non-positive inputs make
// a geometric mean meaningless, so they are rejected by returning NaN; the
// experiment harness treats that as a configuration error.
func GeoMean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	logSum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return math.NaN()
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}

// Table accumulates rows and renders an aligned plain-text table, the output
// format for every reproduced figure and table.
type Table struct {
	title  string
	header []string
	rows   [][]string
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row of pre-formatted cells. Short rows are padded with
// empty cells; long rows extend the column count.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, cells)
}

// AddRowf appends a row, formatting each cell with Cell.
func (t *Table) AddRowf(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		row[i] = Cell(c)
	}
	t.rows = append(t.rows, row)
}

// Cell formats a single value for table output: floats with three decimals,
// everything else via %v.
func Cell(v any) string {
	switch x := v.(type) {
	case float64:
		return fmt.Sprintf("%.3f", x)
	case float32:
		return fmt.Sprintf("%.3f", x)
	default:
		return fmt.Sprintf("%v", x)
	}
}

// Percent formats a fraction in [0,1] as a percentage with one decimal.
func Percent(f float64) string { return fmt.Sprintf("%.1f%%", 100*f) }

// CSV renders the table as RFC-4180-style comma-separated values (title as
// a comment line, header, then rows). Cells containing commas or quotes are
// quoted.
func (t *Table) CSV() string {
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "# %s\n", t.title)
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				b.WriteString(`"` + strings.ReplaceAll(c, `"`, `""`) + `"`)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		writeRow(t.header)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	cols := len(t.header)
	for _, r := range t.rows {
		if len(r) > cols {
			cols = len(r)
		}
	}
	widths := make([]int, cols)
	measure := func(r []string) {
		for i, c := range r {
			if len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	measure(t.header)
	for _, r := range t.rows {
		measure(r)
	}
	var b strings.Builder
	if t.title != "" {
		fmt.Fprintf(&b, "%s\n", t.title)
	}
	writeRow := func(r []string) {
		for i := 0; i < cols; i++ {
			cell := ""
			if i < len(r) {
				cell = r[i]
			}
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteString("\n")
	}
	if len(t.header) > 0 {
		writeRow(t.header)
		sep := make([]string, cols)
		for i := range sep {
			sep[i] = strings.Repeat("-", widths[i])
		}
		writeRow(sep)
	}
	for _, r := range t.rows {
		writeRow(r)
	}
	return b.String()
}
