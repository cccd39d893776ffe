// Package stats provides the statistics machinery shared by the simulator:
// named counters, ratio helpers, and plain-text table rendering used by the
// experiment harness to print paper-style tables.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
)

// Set is a collection of named counters. Counter names are created on first
// use; the zero value is an empty set.
//
// Names and values sit in two parallel slices in creation order, with no
// index: a result holds about 70 counters, few enough that a linear scan
// in Add and Get costs less than a map, and a memoised result keeps one
// copy of its counters.
type Set struct {
	names  []string
	values []uint64
}

// NewSetSize returns an empty counter set with room for n counters, so a
// producer that knows its counter count fills it without regrowing.
func NewSetSize(n int) *Set {
	return &Set{names: make([]string, 0, n), values: make([]uint64, 0, n)}
}

// index returns the position of the named counter, or -1.
func (s *Set) index(name string) int {
	for i, n := range s.names {
		if n == name {
			return i
		}
	}
	return -1
}

// Add increments the named counter by n, creating it if necessary.
func (s *Set) Add(name string, n uint64) {
	if i := s.index(name); i >= 0 {
		s.values[i] += n
		return
	}
	s.names = append(s.names, name)
	s.values = append(s.values, n)
}

// Get returns the value of the named counter (zero if never touched).
func (s *Set) Get(name string) uint64 {
	if i := s.index(name); i >= 0 {
		return s.values[i]
	}
	return 0
}

// Names returns the counter names in creation order.
func (s *Set) Names() []string { return slices.Clone(s.names) }

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

// String renders the set as "name=value" lines sorted by name, primarily for
// debugging and log output.
func (s *Set) String() string {
	order := make([]int, len(s.names))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return s.names[order[a]] < s.names[order[b]] })
	var b strings.Builder
	for _, i := range order {
		fmt.Fprintf(&b, "%s=%d\n", s.names[i], s.values[i])
	}
	return b.String()
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
// format for every reproduced figure and table. A row is its label cells
// followed by numeric entries, which keep their numbers for Value.
type Table struct {
	title  string
	header []string
	rows   []row
}

// row is a table row: its label cells, then its entries. A row added
// with AddRow or AddRowf holds all its cells as labels.
type row struct {
	labels  []string
	entries []Entry
}

// cells renders the row's cells.
func (r row) cells() []string {
	if len(r.entries) == 0 {
		return r.labels
	}
	cells := make([]string, 0, len(r.labels)+len(r.entries))
	cells = append(cells, r.labels...)
	for _, e := range r.entries {
		cells = append(cells, e.String())
	}
	return cells
}

// Entry is one numeric cell of a table: a number and how it renders. The
// zero Entry is absent: it renders "-" and holds no number.
type Entry struct {
	v       float64
	pct, ok bool
}

// Num is an entry that renders its number like Cell.
func Num(v float64) Entry { return Entry{v: v, ok: true} }

// Pct is an entry that renders its fraction like Percent.
func Pct(v float64) Entry { return Entry{v: v, pct: true, ok: true} }

// String renders the entry.
func (e Entry) String() string {
	switch {
	case !e.ok:
		return "-"
	case e.pct:
		return Percent(e.v)
	default:
		return Cell(e.v)
	}
}

// NewTable returns a table with the given title and column headers.
func NewTable(title string, header ...string) *Table {
	return &Table{title: title, header: header}
}

// AddRow appends a row of pre-formatted cells. Short rows are padded with
// empty cells; long rows extend the column count.
func (t *Table) AddRow(cells ...string) {
	t.rows = append(t.rows, row{labels: cells})
}

// AddRowf appends a row, formatting each cell with Cell.
func (t *Table) AddRowf(cells ...any) {
	r := make([]string, len(cells))
	for i, c := range cells {
		r[i] = Cell(c)
	}
	t.AddRow(r...)
}

// AddEntries appends a row of label cells followed by numeric entries.
func (t *Table) AddEntries(labels []string, entries ...Entry) {
	t.rows = append(t.rows, row{labels: labels, entries: entries})
}

// Value returns the unrounded number of the entry in column col of the
// row whose label cells are labels. It reports false for an unknown row,
// a column the header does not name exactly once, and an absent entry.
func (t *Table) Value(col string, labels ...string) (float64, bool) {
	c := slices.Index(t.header, col)
	if c < 0 || slices.Index(t.header[c+1:], col) >= 0 {
		return 0, false
	}
	for _, r := range t.rows {
		if !slices.Equal(r.labels, labels) {
			continue
		}
		if i := c - len(labels); i >= 0 && i < len(r.entries) && r.entries[i].ok {
			return r.entries[i].v, true
		}
		return 0, false
	}
	return 0, false
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
		writeRow(r.cells())
	}
	return b.String()
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	rows := make([][]string, len(t.rows))
	cols := len(t.header)
	for i, r := range t.rows {
		rows[i] = r.cells()
		cols = max(cols, len(rows[i]))
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
	for _, r := range rows {
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
	for _, r := range rows {
		writeRow(r)
	}
	return b.String()
}
