// Package stats provides the statistics machinery shared by the simulator:
// named counters, ratio helpers, and plain-text table rendering used by the
// experiment harness to print paper-style tables.
package stats

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
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

// MaxVocabulary bounds the number of names VocabularyName knows, and so
// the counters a result of these names holds: a decoder that restores one
// gathers its names and values in arrays of this length.
const MaxVocabulary = 128

// MakeSet returns an empty set that keeps its counters in names and
// values until it outgrows them, so a producer can allocate a set's room
// with the set and whatever holds it in one object (cpu.NewResult).
func MakeSet(names []string, values []uint64) Set {
	return Set{names: names[:0], values: values[:0]}
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

// Len returns the number of counters.
func (s *Set) Len() int { return len(s.names) }

// At returns the name and value of the i-th counter in creation order,
// 0 <= i < Len(), for a caller that walks the set without copying its
// names.
func (s *Set) At(i int) (name string, value uint64) { return s.names[i], s.values[i] }

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

// len is the row's cell count.
func (r *row) len() int { return len(r.labels) + len(r.entries) }

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
	var buf [24]byte
	return string(e.appendTo(buf[:0]))
}

// appendTo appends the entry as String renders it: ASCII only, never a
// comma, quote or newline.
func (e Entry) appendTo(dst []byte) []byte {
	switch {
	case !e.ok:
		return append(dst, '-')
	case e.pct:
		return appendPercent(dst, e.v)
	default:
		return strconv.AppendFloat(dst, e.v, 'f', 3, 64)
	}
}

// appendPercent appends f as Percent renders it, like fmt's %.1f%%.
func appendPercent(dst []byte, f float64) []byte {
	return append(strconv.AppendFloat(dst, 100*f, 'f', 1, 64), '%')
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
func Percent(f float64) string {
	var buf [24]byte
	return string(appendPercent(buf[:0], f))
}

// The renderers below measure the table first and then append every cell
// into one buffer of exactly the rendering's size, so a table renders in
// one allocation however many rows it has. An entry renders into a stack
// scratch buffer wherever its width is measured.

// CSV renders the table as RFC-4180-style comma-separated values (title as
// a comment line, header, then rows). Cells containing commas or quotes are
// quoted.
func (t *Table) CSV() string {
	var scratch [32]byte
	size := 0
	if t.title != "" {
		size += len("# \n") + len(t.title)
	}
	field := func(s string) int {
		if !strings.ContainsAny(s, ",\"\n") {
			return len(s)
		}
		return len(s) + 2 + strings.Count(s, `"`)
	}
	measure := func(r *row) {
		size += max(r.len(), 1) // the commas and the newline
		for _, l := range r.labels {
			size += field(l)
		}
		for _, e := range r.entries {
			size += len(e.appendTo(scratch[:0]))
		}
	}
	header := row{labels: t.header}
	if len(t.header) > 0 {
		measure(&header)
	}
	for i := range t.rows {
		measure(&t.rows[i])
	}

	var b strings.Builder
	b.Grow(size)
	if t.title != "" {
		b.WriteString("# ")
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	write := func(r *row) {
		for i, l := range r.labels {
			if i > 0 {
				b.WriteByte(',')
			}
			if !strings.ContainsAny(l, ",\"\n") {
				b.WriteString(l)
				continue
			}
			b.WriteByte('"')
			for j := 0; j < len(l); j++ {
				if l[j] == '"' {
					b.WriteByte('"')
				}
				b.WriteByte(l[j])
			}
			b.WriteByte('"')
		}
		for j, e := range r.entries {
			if len(r.labels)+j > 0 {
				b.WriteByte(',')
			}
			b.Write(e.appendTo(scratch[:0]))
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		write(&header)
	}
	for i := range t.rows {
		write(&t.rows[i])
	}
	return b.String()
}

// String renders the table with aligned columns. A column is as wide as
// its longest cell in bytes, and a cell is padded with spaces to that
// width counted in runes, as fmt's %-*s pads.
func (t *Table) String() string {
	var scratch [32]byte
	cols := len(t.header)
	for i := range t.rows {
		cols = max(cols, t.rows[i].len())
	}
	var widthBuf [16]int
	widths := widthBuf[:]
	if cols > len(widthBuf) {
		widths = make([]int, cols)
	}
	widths = widths[:cols]
	// A cell takes its column's width in bytes, plus the bytes its runes
	// take beyond one each.
	extra := 0
	measure := func(r *row) {
		for i, l := range r.labels {
			widths[i] = max(widths[i], len(l))
			extra += len(l) - utf8.RuneCountInString(l)
		}
		for j, e := range r.entries {
			i := len(r.labels) + j
			widths[i] = max(widths[i], len(e.appendTo(scratch[:0])))
		}
	}
	header := row{labels: t.header}
	measure(&header)
	for i := range t.rows {
		measure(&t.rows[i])
	}
	lines := len(t.rows)
	if len(t.header) > 0 {
		lines += 2
	}
	line := 1 + 2*max(cols-1, 0)
	for _, w := range widths {
		line += w
	}
	size := lines*line + extra
	if t.title != "" {
		size += len(t.title) + 1
	}

	var b strings.Builder
	b.Grow(size)
	if t.title != "" {
		b.WriteString(t.title)
		b.WriteByte('\n')
	}
	pad := func(from, to int) {
		for ; from < to; from++ {
			b.WriteByte(' ')
		}
	}
	write := func(r *row) {
		for i := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			switch j := i - len(r.labels); {
			case j < 0:
				b.WriteString(r.labels[i])
				pad(utf8.RuneCountInString(r.labels[i]), widths[i])
			case j < len(r.entries):
				c := r.entries[j].appendTo(scratch[:0])
				b.Write(c)
				pad(len(c), widths[i])
			default:
				pad(0, widths[i])
			}
		}
		b.WriteByte('\n')
	}
	if len(t.header) > 0 {
		write(&header)
		for i, w := range widths {
			if i > 0 {
				b.WriteString("  ")
			}
			for ; w > 0; w-- {
				b.WriteByte('-')
			}
		}
		b.WriteByte('\n')
	}
	for i := range t.rows {
		write(&t.rows[i])
	}
	return b.String()
}
