package stats

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// refEntry formats an entry as the fmt-based renderer did: Cell's %.3f,
// Percent's %.1f%% and "-" for an absent entry.
func refEntry(e Entry) string {
	switch {
	case !e.ok:
		return "-"
	case e.pct:
		return fmt.Sprintf("%.1f%%", 100*e.v)
	default:
		return fmt.Sprintf("%.3f", e.v)
	}
}

// refCells is a row's cells as the fmt-based renderer built them.
func refCells(r row) []string {
	cells := append([]string(nil), r.labels...)
	for _, e := range r.entries {
		cells = append(cells, refEntry(e))
	}
	return cells
}

// refString is Table.String as it was before the one-buffer renderer: the
// reference the renderer must match byte for byte.
func refString(t *Table) string {
	rows := make([][]string, len(t.rows))
	cols := len(t.header)
	for i, r := range t.rows {
		rows[i] = refCells(r)
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

// refCSV is Table.CSV as it was before the one-buffer renderer.
func refCSV(t *Table) string {
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
		writeRow(refCells(r))
	}
	return b.String()
}

// randomTable builds a table from rng: an empty or non-ASCII title or
// header, rows shorter and longer than the header, labels with runes of
// two to four bytes, commas, quotes and newlines, and entries that are
// NaN, ±Inf, −0, tiny, huge, percentages or absent.
func randomTable(rng *rand.Rand) *Table {
	titles := []string{"", "T2: workload characterisation", "Ω: naïve ports"}
	labels := []string{"", "compress", "1-port", "naïve-8B", "μ-ops", "日本語", "𝔼[ipc]", "a,b", `say "hi"`, "two\nlines", "best/dual"}
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.23456, -2.5,
		1e-9, 123456.789, 0.9995, 0.00049, -0.0004, 1e15}
	pick := func(n int) []string {
		out := make([]string, n)
		for i := range out {
			out[i] = labels[rng.Intn(len(labels))]
		}
		return out
	}
	t := NewTable(titles[rng.Intn(len(titles))], pick(rng.Intn(6))...)
	for range rng.Intn(8) {
		if rng.Intn(4) == 0 {
			t.AddRow(pick(rng.Intn(8))...)
			continue
		}
		es := make([]Entry, rng.Intn(7))
		for i := range es {
			switch v := values[rng.Intn(len(values))]; rng.Intn(3) {
			case 0:
				es[i] = Num(v)
			case 1:
				es[i] = Pct(v)
			}
		}
		t.AddEntries(pick(rng.Intn(3)), es...)
	}
	return t
}

// TestRenderMatchesFmtReference renders generated tables with the
// one-buffer renderer and with the fmt-based reference, which pads each
// cell to its column's byte width counted in runes (%-*s), and requires
// the same bytes from String and CSV.
func TestRenderMatchesFmtReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := range 2000 {
		tb := randomTable(rng)
		if got, want := tb.String(), refString(tb); got != want {
			t.Fatalf("table %d: String\n%q\nwant\n%q", i, got, want)
		}
		if got, want := tb.CSV(), refCSV(tb); got != want {
			t.Fatalf("table %d: CSV\n%q\nwant\n%q", i, got, want)
		}
	}
	for _, e := range []Entry{{}, Num(math.NaN()), Num(math.Inf(-1)), Pct(math.Inf(1)), Num(math.Copysign(0, -1)), Pct(0.9995)} {
		if got, want := e.String(), refEntry(e); got != want {
			t.Errorf("Entry %+v renders %q, want %q", e, got, want)
		}
	}
}

// TestRenderAllocationsConstant pins the one-buffer renderer: String and
// CSV allocate the same at 3 rows as at 300, one buffer each.
func TestRenderAllocationsConstant(t *testing.T) {
	table := func(rows int) *Table {
		tb := NewTable("F4: line buffers", "workload", "lb=0", "hit", "share", "grants")
		for i := range rows {
			tb.AddEntries([]string{"compress"}, Num(float64(i)/7), Pct(0.25), Num(-1), Entry{})
		}
		tb.AddRow("geomean", "1.000")
		return tb
	}
	small, large := table(3), table(300)
	for _, render := range []struct {
		name string
		fn   func(*Table) string
	}{{"String", (*Table).String}, {"CSV", (*Table).CSV}} {
		a := testing.AllocsPerRun(20, func() { _ = render.fn(small) })
		b := testing.AllocsPerRun(20, func() { _ = render.fn(large) })
		if a != b || b > 1 {
			t.Errorf("%s allocates %v objects at 3 rows and %v at 300; want one buffer at both", render.name, a, b)
		}
	}
}
