package stats

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"portsim/internal/isa"
)

func TestSetBasics(t *testing.T) {
	s := new(Set)
	if got := s.Get("missing"); got != 0 {
		t.Errorf("untouched counter = %d, want 0", got)
	}
	s.Add("a", 1)
	s.Add("a", 4)
	s.Add("b", 10)
	if got := s.Get("a"); got != 5 {
		t.Errorf("a = %d, want 5", got)
	}
	if got := s.Get("b"); got != 10 {
		t.Errorf("b = %d, want 10", got)
	}
	names := s.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("Names() = %v, want [a b] in creation order", names)
	}
}

// ratio divides two of a set's counters the way every table does.
func ratio(s *Set, num, den string) float64 {
	return SafeRatio(float64(s.Get(num)), float64(s.Get(den)))
}

func TestSetRatio(t *testing.T) {
	s := new(Set)
	s.Add("hits", 3)
	s.Add("accesses", 4)
	if got := ratio(s, "hits", "accesses"); got != 0.75 {
		t.Errorf("Ratio = %v, want 0.75", got)
	}
	if got := ratio(s, "hits", "never"); got != 0 {
		t.Errorf("Ratio with zero denominator = %v, want 0", got)
	}
}

// TestSetRatioZeroDenominator pins a ratio of counters to SafeRatio's
// no-events rule for a denominator counter that exists but never fired —
// the case a cell with zero port accesses produces. The result must be
// exactly zero, never NaN or Inf leaking into a report table.
func TestSetRatioZeroDenominator(t *testing.T) {
	s := new(Set)
	s.Add("rejects", 7)
	s.Add("accesses", 0)
	got := ratio(s, "rejects", "accesses")
	if got != 0 {
		t.Errorf("Ratio(7, explicit 0) = %v, want 0", got)
	}
	if math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("Ratio(7, explicit 0) = %v; must be finite", got)
	}
}

func TestSetString(t *testing.T) {
	s := new(Set)
	s.Add("zeta", 1)
	s.Add("alpha", 2)
	out := s.String()
	if !strings.Contains(out, "alpha=2") || !strings.Contains(out, "zeta=1") {
		t.Errorf("String() = %q missing counters", out)
	}
	if strings.Index(out, "alpha") > strings.Index(out, "zeta") {
		t.Errorf("String() not sorted: %q", out)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{2, 8}); math.Abs(got-4) > 1e-12 {
		t.Errorf("GeoMean(2,8) = %v, want 4", got)
	}
	if got := GeoMean([]float64{5}); math.Abs(got-5) > 1e-12 {
		t.Errorf("GeoMean(5) = %v, want 5", got)
	}
	if !math.IsNaN(GeoMean(nil)) {
		t.Error("GeoMean(nil) should be NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, 0})) {
		t.Error("GeoMean with zero should be NaN")
	}
	if !math.IsNaN(GeoMean([]float64{1, -2})) {
		t.Error("GeoMean with negative should be NaN")
	}
}

// TestGeoMeanBounds property: the geometric mean of positive values lies
// between the minimum and maximum.
func TestGeoMeanBounds(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, r := range raw {
			v := math.Abs(r)
			if v > 1e-6 && v < 1e6 && !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		lo, hi := xs[0], xs[0]
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		g := GeoMean(xs)
		return g >= lo*(1-1e-9) && g <= hi*(1+1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Figure X", "workload", "ipc", "note")
	tb.AddRowf("compress", 1.234567, "ok")
	tb.AddRow("db", "2.0")
	out := tb.String()
	if !strings.Contains(out, "Figure X") {
		t.Errorf("missing title in %q", out)
	}
	if !strings.Contains(out, "1.235") {
		t.Errorf("float not formatted to 3 decimals in %q", out)
	}
	if !strings.Contains(out, "workload") || !strings.Contains(out, "---") {
		t.Errorf("missing header or separator in %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 5 {
		t.Errorf("got %d lines, want 5 (title, header, sep, 2 rows)", len(lines))
	}
}

// TestTableEntries checks the typed rows: an AddEntries row renders byte for
// byte like the AddRow row of the same pre-formatted cells, Value returns
// the unrounded number, and unknown rows, unknown or repeated columns and
// absent entries are not found.
func TestTableEntries(t *testing.T) {
	typed := NewTable("T", "machine", "workload", "ipc", "share", "hit", "hit")
	plain := NewTable("T", "machine", "workload", "ipc", "share", "hit", "hit")
	typed.AddEntries([]string{"dual", "compress"}, Num(1.23456), Pct(0.91234), Entry{}, Num(2))
	plain.AddRow("dual", "compress", Cell(1.23456), Percent(0.91234), "-", Cell(2.0))
	typed.AddRow("geomean", "x", "1.000")
	plain.AddRow("geomean", "x", "1.000")
	if typed.String() != plain.String() || typed.CSV() != plain.CSV() {
		t.Errorf("typed rows render\n%s%s\nplain rows render\n%s%s", typed, typed.CSV(), plain, plain.CSV())
	}
	if v, ok := typed.Value("ipc", "dual", "compress"); !ok || v != 1.23456 {
		t.Errorf("Value(ipc) = %v, %v; want 1.23456, true", v, ok)
	}
	if v, ok := typed.Value("share", "dual", "compress"); !ok || v != 0.91234 {
		t.Errorf("Value(share) = %v, %v; want 0.91234, true", v, ok)
	}
	for _, q := range [][]string{
		{"ipc", "dual"},             // unknown row: too few labels
		{"ipc", "dual", "eqntott"},  // unknown row
		{"ipc", "geomean", "x"},     // a row without entries
		{"IPC", "dual", "compress"}, // unknown column
		{"machine", "dual", "compress"},
		{"hit", "dual", "compress"}, // a column named twice
		{"share", "dual", "compress", "x"},
	} {
		if v, ok := typed.Value(q[0], q[1:]...); ok {
			t.Errorf("Value(%q) = %v, found", q, v)
		}
	}
	absent := NewTable("T", "workload", "0 grants", "1 grant", "2 grants")
	absent.AddEntries([]string{"compress"}, Pct(0.5), Pct(0.5), Entry{})
	if v, ok := absent.Value("2 grants", "compress"); ok {
		t.Errorf("absent entry = %v, found", v)
	}
}

func TestCellAndPercent(t *testing.T) {
	if got := Cell(float32(1.5)); got != "1.500" {
		t.Errorf("Cell(float32) = %q", got)
	}
	if got := Cell(42); got != "42" {
		t.Errorf("Cell(int) = %q", got)
	}
	if got := Percent(0.915); got != "91.5%" {
		t.Errorf("Percent = %q", got)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("Fig", "a", "b")
	tb.AddRow("x", "1,5")
	tb.AddRow(`say "hi"`, "2")
	out := tb.CSV()
	want := "# Fig\na,b\nx,\"1,5\"\n\"say \"\"hi\"\"\",2\n"
	if out != want {
		t.Errorf("CSV = %q, want %q", out, want)
	}
}

func TestTableCSVNoTitleNoHeader(t *testing.T) {
	tb := NewTable("")
	tb.AddRow("only", "row")
	if got := tb.CSV(); got != "only,row\n" {
		t.Errorf("CSV = %q", got)
	}
}

func TestSafeRatio(t *testing.T) {
	cases := []struct {
		num, den, want float64
	}{
		{1, 2, 0.5},
		{3, 0, 0}, // branch-free cell: no NaN
		{0, 0, 0}, // fully empty counters
		{-4, 2, -2},
		{5, 0.5, 10},
	}
	for _, c := range cases {
		if got := SafeRatio(c.num, c.den); got != c.want {
			t.Errorf("SafeRatio(%v, %v) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
	if got := SafeRatio(1, 0); math.IsNaN(got) || math.IsInf(got, 0) {
		t.Errorf("SafeRatio(1, 0) = %v; must be finite", got)
	}
}

func TestPortRejects(t *testing.T) {
	s := new(Set)
	if got := PortRejects(s); got != 0 {
		t.Errorf("empty set rejects = %d, want 0", got)
	}
	s.Add(PortRejectPortBusy, 3)
	s.Add(PortRejectMSHR, 2)
	s.Add(PortRejectStoreConflict, 1)
	s.Add(PortRejectBankConflict, 4)
	s.Add(PortGrants, 99) // not a rejection; must not be counted
	if got := PortRejects(s); got != 10 {
		t.Errorf("rejects = %d, want 10", got)
	}
	if len(PortRejectNames) != 4 {
		t.Errorf("PortRejectNames has %d entries, want the 4 rejection reasons", len(PortRejectNames))
	}
}

// TestVocabularyCoversNamesFile parses names.go and requires every string
// constant it declares, every class counter and every precomputed grant
// bucket to be a vocabulary name, and nothing else: a constant added to
// the file without joining the lookup would make restored results copy
// its name again.
func TestVocabularyCoversNamesFile(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "names.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, decl := range f.Decls {
		gd, ok := decl.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			for _, v := range spec.(*ast.ValueSpec).Values {
				lit, ok := v.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					t.Fatalf("names.go constant %v is not a string literal", v)
				}
				name, err := strconv.Unquote(lit.Value)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, name)
			}
		}
	}
	for c := isa.Class(0); int(c) < isa.NumClasses; c++ {
		want = append(want, ClassCounter(c.String()))
	}
	for n := 0; n <= 16; n++ {
		want = append(want, GrantBucket(n))
	}
	for _, name := range want {
		if got, ok := VocabularyName([]byte(name)); !ok || got != name {
			t.Errorf("VocabularyName(%q) = %q, %v; want the name itself", name, got, ok)
		}
	}
	if got := len(vocabulary); got != len(want) || got > MaxVocabulary {
		t.Errorf("the vocabulary holds %d names, want the %d names above and at most MaxVocabulary (%d)", got, len(want), MaxVocabulary)
	}
	for _, name := range []string{"", "cycles ", "Cycles", GrantBucket(17), "class.bogus"} {
		if got, ok := VocabularyName([]byte(name)); ok {
			t.Errorf("VocabularyName(%q) = %q, true; want no such name", name, got)
		}
	}
	b := []byte(PortGrants)
	if n := testing.AllocsPerRun(100, func() { VocabularyName(b) }); n != 0 {
		t.Errorf("VocabularyName allocates %v objects per lookup; want 0", n)
	}
}
